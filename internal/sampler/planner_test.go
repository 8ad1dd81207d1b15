package sampler

import (
	"strings"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/scenario"
)

func pendingTask(sku, alias string, n int) *scenario.Task {
	t := taskFor(sku, alias, n)
	t.Status = scenario.StatusPending
	return t
}

func TestPlanNextPrefersCheapExplorationFirst(t *testing.T) {
	store := dataset.NewStore() // nothing measured yet
	candidates := []*scenario.Task{
		pendingTask("Standard_HB120rs_v3", "hb120rs_v3", 16),
		pendingTask("Standard_HB120rs_v3", "hb120rs_v3", 1),
		pendingTask("Standard_HC44rs", "hc44rs", 1),
	}
	ranked := PlanNext(store, candidates, pricing.Default(), "southcentralus", 3)
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	// Cheapest probes first: single nodes before 16 nodes.
	if ranked[0].Task.NNodes != 1 {
		t.Errorf("first pick = %d nodes, want a 1-node probe", ranked[0].Task.NNodes)
	}
	if ranked[len(ranked)-1].Task.NNodes != 16 {
		t.Errorf("last pick = %d nodes, want the expensive probe last", ranked[len(ranked)-1].Task.NNodes)
	}
	// The cheapest SKU probe outranks the pricier one at equal nodes.
	if ranked[0].Task.SKUAlias != "hc44rs" {
		t.Errorf("first pick SKU = %s, want hc44rs ($3.17/h < $3.60/h)", ranked[0].Task.SKUAlias)
	}
	for _, r := range ranked {
		if !strings.Contains(r.Rationale, "unexplored") {
			t.Errorf("rationale = %q", r.Rationale)
		}
	}
}

func TestPlanNextScoresExtrapolatedGain(t *testing.T) {
	store := dataset.NewStore()
	// A clean Amdahl series measured at 1..4 nodes.
	for _, n := range []int{1, 2, 4} {
		store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
	}
	// Candidate 8 nodes extends the front (faster than anything measured);
	// candidate 2 nodes is already measured territory and adds nothing.
	extend := pendingTask("Standard_HB120rs_v3", "hb120rs_v3", 8)
	redundant := pendingTask("Standard_HB120rs_v3", "hb120rs_v3", 3)
	ranked := PlanNext(store, []*scenario.Task{redundant, extend}, pricing.Default(), "southcentralus", 2)
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if ranked[0].Task.NNodes != 8 {
		t.Errorf("first pick = %d nodes, want the front-extending 8", ranked[0].Task.NNodes)
	}
	if ranked[0].Score <= ranked[1].Score {
		t.Error("front-extending candidate should outscore the redundant one")
	}
	if !strings.Contains(ranked[0].Rationale, "hypervolume") {
		t.Errorf("rationale = %q", ranked[0].Rationale)
	}
}

func TestPlanNextHonorsKAndStatus(t *testing.T) {
	store := dataset.NewStore()
	done := pendingTask("Standard_HC44rs", "hc44rs", 1)
	done.Status = scenario.StatusCompleted
	candidates := []*scenario.Task{
		done,
		pendingTask("Standard_HC44rs", "hc44rs", 2),
		pendingTask("Standard_HC44rs", "hc44rs", 4),
		pendingTask("Standard_HC44rs", "hc44rs", 8),
	}
	ranked := PlanNext(store, candidates, pricing.Default(), "southcentralus", 2)
	if len(ranked) != 2 {
		t.Fatalf("k not honored: %d", len(ranked))
	}
	for _, r := range ranked {
		if r.Task.Status != scenario.StatusPending {
			t.Error("non-pending task ranked")
		}
	}
	if got := PlanNext(store, candidates, pricing.Default(), "southcentralus", 0); got != nil {
		t.Error("k=0 should return nothing")
	}
	if got := PlanNext(store, nil, pricing.Default(), "southcentralus", 5); got != nil {
		t.Error("no candidates should return nothing")
	}
}

func TestPlanNextSkipsUnpricedSKUs(t *testing.T) {
	store := dataset.NewStore()
	unpriced := pendingTask("Standard_Mystery", "mystery", 2)
	ranked := PlanNext(store, []*scenario.Task{unpriced}, pricing.Default(), "southcentralus", 5)
	if len(ranked) != 0 {
		t.Errorf("unpriced SKU should be skipped, got %d", len(ranked))
	}
}

func TestPlanNextIgnoresFailedPoints(t *testing.T) {
	// Failed scenarios (ExecTimeSec = 0) must not count as measurements:
	// neither as fit evidence nor in the hypervolume reference box.
	clean := dataset.NewStore()
	dirty := dataset.NewStore()
	for _, n := range []int{1, 2, 4} {
		clean.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
		dirty.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
	}
	dirty.Add(failedPoint("Standard_HB120rs_v3", "hb120rs_v3", 8))
	dirty.Add(failedPoint("Standard_HC44rs", "hc44rs", 1))

	candidates := func() []*scenario.Task {
		return []*scenario.Task{
			pendingTask("Standard_HB120rs_v3", "hb120rs_v3", 8),
			pendingTask("Standard_HC44rs", "hc44rs", 1),
		}
	}
	want := PlanNext(clean, candidates(), pricing.Default(), "southcentralus", 2)
	got := PlanNext(dirty, candidates(), pricing.Default(), "southcentralus", 2)
	if len(want) != len(got) {
		t.Fatalf("ranked sizes differ: clean %d, dirty %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Task.ID != got[i].Task.ID || want[i].Score != got[i].Score {
			t.Errorf("rank %d differs with failed points present: clean (%s %.4g) vs dirty (%s %.4g)",
				i, want[i].Task.SKUAlias, want[i].Score, got[i].Task.SKUAlias, got[i].Score)
		}
	}
}

func TestPlanNextScoresAgainstOwnFront(t *testing.T) {
	// Each candidate is scored against the front and reference box of its
	// own (application, input): another application's points in the same
	// store, or the same application's under another input, here much
	// faster sweeps, must not move any score.
	lammps := dataset.NewStore()
	shared := dataset.NewStore()
	for _, n := range []int{1, 2, 4} {
		lammps.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
		shared.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
		other := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 100, 0.05)
		other.ScenarioID = "openfoam-" + other.ScenarioID
		other.AppName = "openfoam"
		other.AppInput = map[string]string{"mesh": "40 16 16"}
		other.InputDesc = "cells=10240"
		shared.Add(other)
		small := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 100, 0.05)
		small.ScenarioID = "small-" + small.ScenarioID
		small.AppInput = map[string]string{"BOXFACTOR": "8"}
		small.InputDesc = "atoms=16M"
		shared.Add(small)
	}
	candidates := func() []*scenario.Task {
		return []*scenario.Task{
			pendingTask("Standard_HB120rs_v3", "hb120rs_v3", 3),
			pendingTask("Standard_HB120rs_v3", "hb120rs_v3", 8),
		}
	}
	want := PlanNext(lammps, candidates(), pricing.Default(), "southcentralus", 2)
	got := PlanNext(shared, candidates(), pricing.Default(), "southcentralus", 2)
	if len(want) != 2 || len(got) != 2 {
		t.Fatalf("ranked sizes: alone %d, shared %d", len(want), len(got))
	}
	if want[0].Task.NNodes != 8 || want[0].Score <= 0 {
		t.Fatalf("alone: first pick %d nodes scoring %.4g, want the front-extending 8 with a positive score",
			want[0].Task.NNodes, want[0].Score)
	}
	for i := range want {
		if want[i].Task.NNodes != got[i].Task.NNodes || want[i].Score != got[i].Score {
			t.Errorf("rank %d moved by other points: alone %d nodes %.4g, shared %d nodes %.4g",
				i, want[i].Task.NNodes, want[i].Score, got[i].Task.NNodes, got[i].Score)
		}
	}
}
