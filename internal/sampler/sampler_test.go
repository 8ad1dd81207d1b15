package sampler

import (
	"strings"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/scenario"
)

// amdahlPoint fabricates a measured point following T(n) = t1*(s+(1-s)/n)
// at $3.60/hour.
func amdahlPoint(sku, alias string, n int, t1, serial float64) dataset.Point {
	t := t1 * (serial + (1-serial)/float64(n))
	return dataset.Point{
		ScenarioID:  alias + "-" + string(rune('a'+n)),
		AppName:     "lammps",
		SKU:         sku,
		SKUAlias:    alias,
		NNodes:      n,
		PPN:         120,
		AppInput:    map[string]string{"BOXFACTOR": "30"},
		InputDesc:   "atoms=864M",
		ExecTimeSec: t,
		CostUSD:     float64(n) * t * 3.6 / 3600,
	}
}

func taskFor(sku, alias string, n int) *scenario.Task {
	return &scenario.Task{
		Scenario: scenario.Scenario{
			ID: "t", AppName: "lammps", SKU: sku, SKUAlias: alias,
			NNodes: n, PPN: 120,
			AppInput: map[string]string{"BOXFACTOR": "30"},
		},
		Status: scenario.StatusPending,
	}
}

func TestFullAlwaysRuns(t *testing.T) {
	store := dataset.NewStore()
	run, reason := Full{}.Decide(taskFor("Standard_HC44rs", "hc44rs", 8), store)
	if !run || reason != "" {
		t.Errorf("Full.Decide = %v, %q", run, reason)
	}
}

func TestAggressiveDiscardNeedsEvidence(t *testing.T) {
	store := dataset.NewStore()
	d := AggressiveDiscard{}
	// No data at all: run.
	if run, _ := d.Decide(taskFor("Standard_HC44rs", "hc44rs", 4), store); !run {
		t.Error("no evidence should run")
	}
	// One dominated point is below the discardMinPoints=2 threshold.
	store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 1, 900, 0.02))
	store.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 1, 4000, 0.02))
	if run, _ := d.Decide(taskFor("Standard_HC44rs", "hc44rs", 2), store); !run {
		t.Error("single point should not be enough to discard")
	}
}

func TestAggressiveDiscardSkipsHopelessSKU(t *testing.T) {
	store := dataset.NewStore()
	// hb120rs_v3 measured across the sweep; hc44rs measured twice, both far
	// off the front (4x slower at similar cost scale).
	for _, n := range []int{1, 2, 4, 8} {
		store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 900, 0.02))
	}
	store.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 1, 4000, 0.02))
	store.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 2, 4000, 0.02))

	d := AggressiveDiscard{}
	run, reason := d.Decide(taskFor("Standard_HC44rs", "hc44rs", 4), store)
	if run {
		t.Fatal("hopeless SKU should be discarded")
	}
	if !strings.Contains(reason, "hc44rs") || !strings.Contains(reason, "dominated") {
		t.Errorf("reason = %q", reason)
	}
	// The surviving SKU keeps running.
	if run, _ := d.Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 16), store); !run {
		t.Error("front SKU should keep running")
	}
}

func TestAggressiveDiscardRespectsMargin(t *testing.T) {
	store := dataset.NewStore()
	for _, n := range []int{1, 2, 4} {
		store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 900, 0.02))
	}
	// hc44rs is slower but within 5%: a 50% margin treats it as
	// competitive, a 1% margin discards it.
	store.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 1, 945, 0.02))
	store.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 2, 945, 0.02))
	if run, _ := (AggressiveDiscard{Margin: 0.50}).Decide(taskFor("Standard_HC44rs", "hc44rs", 4), store); !run {
		t.Error("wide margin should keep near-front SKU")
	}
	// Note: with a 1% margin a 5%-worse point in both dimensions is
	// dominated beyond margin.
	if run, _ := (AggressiveDiscard{Margin: 0.01}).Decide(taskFor("Standard_HC44rs", "hc44rs", 4), store); run {
		t.Error("narrow margin should discard")
	}
}

func TestPerfFactorSkipsPredictedOffFront(t *testing.T) {
	store := dataset.NewStore()
	// Fast SKU fully measured.
	for _, n := range []int{1, 2, 4, 8, 16} {
		store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
	}
	// Slow SKU (same price) measured at three small scales; its
	// extrapolation can never reach the front.
	for _, n := range []int{1, 2, 4} {
		store.Add(amdahlPoint("Standard_HB120rs_v2", "hb120rs_v2", n, 2400, 0.05))
	}
	pf := PerfFactor{Prices: pricing.Default(), Region: "southcentralus"}
	run, reason := pf.Decide(taskFor("Standard_HB120rs_v2", "hb120rs_v2", 16), store)
	if run {
		t.Fatal("predicted off-front scenario should be skipped")
	}
	if !strings.Contains(reason, "amdahl fit") {
		t.Errorf("reason = %q", reason)
	}
	// The fast SKU's own extension still runs (it extends the front).
	if run, _ := pf.Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 32), store); !run {
		t.Error("front-extending scenario should run")
	}
}

func TestPerfFactorFallsBackOnPoorFit(t *testing.T) {
	store := dataset.NewStore()
	for _, n := range []int{1, 2, 4, 8, 16} {
		store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
	}
	// Super-linear measurements cannot be explained by Amdahl; the R² gate
	// must force the scenario to run rather than trust the fit.
	super := []struct {
		n int
		t float64
	}{{1, 4000}, {2, 1300}, {4, 500}}
	for _, s := range super {
		p := amdahlPoint("Standard_HB120rs_v2", "hb120rs_v2", s.n, 1, 0)
		p.ExecTimeSec = s.t
		p.CostUSD = float64(s.n) * s.t * 3.6 / 3600
		store.Add(p)
	}
	pf := PerfFactor{Prices: pricing.Default(), Region: "southcentralus"}
	if run, _ := pf.Decide(taskFor("Standard_HB120rs_v2", "hb120rs_v2", 16), store); !run {
		t.Error("poor fit should fall back to running the scenario")
	}
}

func TestPerfFactorNeedsConfigAndData(t *testing.T) {
	store := dataset.NewStore()
	// Unconfigured planner runs everything.
	if run, _ := (PerfFactor{}).Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 8), store); !run {
		t.Error("unconfigured planner must not skip")
	}
	pf := PerfFactor{Prices: pricing.Default(), Region: "southcentralus"}
	store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 1, 1000, 0.05))
	store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 2, 1000, 0.05))
	if run, _ := pf.Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 8), store); !run {
		t.Error("below predictor.DefaultMinPoints node counts must run")
	}
}

func TestBottleneckAwareSkipsNetworkSaturated(t *testing.T) {
	store := dataset.NewStore()
	p4 := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 4, 100, 0.9)
	p4.Bottleneck = monitor.BottleneckNetwork
	p8 := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 8, 100, 0.9)
	p8.Bottleneck = monitor.BottleneckNetwork
	// 4 -> 8 nodes: 92.5s -> 91.25s, a 1.4% gain.
	store.Add(p4)
	store.Add(p8)

	ba := BottleneckAware{}
	run, reason := ba.Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 16), store)
	if run {
		t.Fatal("network-saturated scaling should be pruned")
	}
	if !strings.Contains(reason, "network bound") {
		t.Errorf("reason = %q", reason)
	}
	// Smaller node counts are unaffected.
	if run, _ := ba.Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 2), store); !run {
		t.Error("smaller scenario should run")
	}
}

func TestBottleneckAwareKeepsHealthyScaling(t *testing.T) {
	store := dataset.NewStore()
	p4 := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 4, 1000, 0.02)
	p4.Bottleneck = monitor.BottleneckCPU
	p8 := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 8, 1000, 0.02)
	p8.Bottleneck = monitor.BottleneckCPU
	store.Add(p4)
	store.Add(p8)
	if run, _ := (BottleneckAware{}).Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 16), store); !run {
		t.Error("healthy cpu-bound scaling should keep running")
	}
	// Even poor gains run if the bottleneck is not the network.
	store = dataset.NewStore()
	q4 := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 4, 100, 0.9)
	q4.Bottleneck = monitor.BottleneckMemory
	q8 := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 8, 100, 0.9)
	q8.Bottleneck = monitor.BottleneckMemory
	store.Add(q4)
	store.Add(q8)
	if run, _ := (BottleneckAware{}).Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 16), store); !run {
		t.Error("non-network bottleneck should not prune")
	}
}

func TestComposite(t *testing.T) {
	store := dataset.NewStore()
	for _, n := range []int{1, 2, 4, 8} {
		store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 900, 0.02))
	}
	store.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 1, 4000, 0.02))
	store.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 2, 4000, 0.02))

	c := Composite{}
	c.Planners = append(c.Planners, Full{}, AggressiveDiscard{})
	if run, reason := c.Decide(taskFor("Standard_HC44rs", "hc44rs", 4), store); run {
		t.Error("composite should propagate the discard")
	} else if reason == "" {
		t.Error("composite should propagate the reason")
	}
	if run, _ := c.Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 16), store); !run {
		t.Error("composite should run when all agree")
	}
}

func TestEvaluate(t *testing.T) {
	full := dataset.NewStore()
	for _, n := range []int{1, 2, 4, 8, 16} {
		full.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
		full.Add(amdahlPoint("Standard_HC44rs", "hc44rs", n, 4000, 0.05))
	}
	// Reduced: hc44rs stopped after two points (which the discard strategy
	// would do).
	reduced := dataset.NewStore()
	for _, n := range []int{1, 2, 4, 8, 16} {
		reduced.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
	}
	reduced.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 1, 4000, 0.05))
	reduced.Add(amdahlPoint("Standard_HC44rs", "hc44rs", 2, 4000, 0.05))

	o := Evaluate("discard", full, reduced, 100, 62, 7, 3)
	if o.FrontRecall != 1 {
		t.Errorf("recall = %v; the hc44rs points were never on the front", o.FrontRecall)
	}
	if o.HypervolumeErrPct > 1e-9 {
		t.Errorf("hv error = %v, want 0", o.HypervolumeErrPct)
	}
	if o.CostSavedPct != 38 {
		t.Errorf("cost saved = %v, want 38", o.CostSavedPct)
	}
	if o.Ran != 7 || o.Skipped != 3 {
		t.Errorf("outcome = %+v", o)
	}
	s := o.String()
	for _, want := range []string{"discard", "recall", "saved"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func failedPoint(sku, alias string, n int) dataset.Point {
	p := amdahlPoint(sku, alias, n, 0, 0)
	p.ScenarioID = alias + "-failed-" + string(rune('a'+n))
	p.ExecTimeSec = 0
	p.CostUSD = 0
	p.Failed = true
	p.Error = "simulated failure"
	return p
}

func TestPerfFactorIgnoresFailedEvidence(t *testing.T) {
	// Same fixture as TestPerfFactorSkipsPredictedOffFront, with failed
	// scenarios interleaved for both SKUs. The planner decisions must be
	// identical: failed points are not evidence.
	store := dataset.NewStore()
	for _, n := range []int{1, 2, 4, 8, 16} {
		store.Add(amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
	}
	for _, n := range []int{1, 2, 4} {
		store.Add(amdahlPoint("Standard_HB120rs_v2", "hb120rs_v2", n, 2400, 0.05))
	}
	store.Add(failedPoint("Standard_HB120rs_v2", "hb120rs_v2", 8))
	store.Add(failedPoint("Standard_HB120rs_v3", "hb120rs_v3", 32))
	pf := PerfFactor{Prices: pricing.Default(), Region: "southcentralus"}
	if run, _ := pf.Decide(taskFor("Standard_HB120rs_v2", "hb120rs_v2", 16), store); run {
		t.Error("failed points must not mask an off-front prediction")
	}
	if run, _ := pf.Decide(taskFor("Standard_HB120rs_v3", "hb120rs_v3", 32), store); !run {
		t.Error("a failed attempt must not make the SKU look infinitely fast")
	}
}

func TestReferencePointIgnoresFailedPoints(t *testing.T) {
	ok := amdahlPoint("Standard_HB120rs_v3", "hb120rs_v3", 1, 1000, 0.05)
	bad := failedPoint("Standard_HC44rs", "hc44rs", 4)
	bad.ExecTimeSec = 1e9 // a garbage time on a failed point must not move the reference
	bad.CostUSD = 1e9
	refT, refC := referencePoint([]dataset.Point{ok, bad})
	if refT != ok.ExecTimeSec*1.1 || refC != ok.CostUSD*1.1 {
		t.Errorf("reference = (%g, %g), want (%g, %g)",
			refT, refC, ok.ExecTimeSec*1.1, ok.CostUSD*1.1)
	}
}
