package queryengine

import (
	"bytes"
	"strings"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/predictor"
	"hpcadvisor/internal/pricing"
)

// amdahlStore builds a store whose points follow a clean Amdahl curve, so
// the predictor's quality gate passes.
func amdahlStore(nodes []int) *dataset.Store {
	s := dataset.NewStore()
	for _, n := range nodes {
		sec := 1000 * (0.05 + 0.95/float64(n))
		s.Add(dataset.Point{
			ScenarioID:  "m-n" + string(rune('a'+n)),
			AppName:     "lammps",
			SKU:         "Standard_HB120rs_v3",
			SKUAlias:    "hb120rs_v3",
			NNodes:      n,
			PPN:         120,
			InputDesc:   "atoms=864M",
			ExecTimeSec: sec,
			CostUSD:     float64(n) * sec * 3.6 / 3600,
		})
	}
	return s
}

func predictedConfig(grid ...int) predictor.Config {
	return predictor.Config{Prices: pricing.Default(), Region: "southcentralus", Grid: grid}
}

func TestPredictedAdviceMemoizedAndInvalidatedByGeneration(t *testing.T) {
	store := amdahlStore([]int{1, 2, 4, 8})
	e := New(store)
	f := dataset.Filter{AppName: "lammps"}
	cfg := predictedConfig(1, 2, 4, 8, 16, 32)

	first := e.PredictedAdviceTable(e.Snapshot(), f, pareto.ByTime, cfg)
	if !strings.Contains(first, "predicted/") {
		t.Fatalf("table lacks predicted rows:\n%s", first)
	}
	// Cold table = table miss + rows miss.
	if got := e.Stats(); got.Misses != 2 || got.Hits != 0 {
		t.Fatalf("cold stats = %+v", got)
	}
	if second := e.PredictedAdviceTable(e.Snapshot(), f, pareto.ByTime, cfg); second != first {
		t.Fatal("repeated predicted table changed")
	}
	if got := e.Stats(); got.Hits != 1 {
		t.Fatalf("warm stats = %+v", got)
	}
	// A different grid is a different key.
	e.PredictedAdviceTable(e.Snapshot(), f, pareto.ByTime, predictedConfig(1, 2, 4, 8, 64))
	if got := e.Stats(); got.Misses != 4 {
		t.Fatalf("distinct config shared a key: %+v", got)
	}

	// Measuring one predicted node count invalidates by generation, and the
	// fresh result replaces that prediction with the measurement.
	sec := 1000 * (0.05 + 0.95/16)
	store.Add(dataset.Point{
		ScenarioID: "measured-16", AppName: "lammps",
		SKU: "Standard_HB120rs_v3", SKUAlias: "hb120rs_v3",
		NNodes: 16, PPN: 120, InputDesc: "atoms=864M",
		ExecTimeSec: sec, CostUSD: 16 * sec * 3.6 / 3600,
	})
	rows := e.PredictedAdvice(e.Snapshot(), f, pareto.ByTime, cfg)
	for _, r := range rows {
		if r.NNodes == 16 && r.Predicted {
			t.Errorf("measured node count still served as predicted: %+v", r)
		}
	}
}

func TestPredictedAdviceEquivalentToDirectPredictor(t *testing.T) {
	store := amdahlStore([]int{1, 2, 4, 8})
	e := New(store)
	f := dataset.Filter{AppName: "lammps"}
	cfg := predictedConfig(1, 2, 4, 8, 16, 32)
	for _, order := range []pareto.SortOrder{pareto.ByTime, pareto.ByCost} {
		want := predictor.FormatAdviceTable(predictor.Advice(store.Select(f), cfg, order))
		got := e.PredictedAdviceTable(e.Snapshot(), f, order, cfg)
		if got != want {
			t.Errorf("engine table diverges from direct predictor:\n--- engine\n%s--- direct\n%s", got, want)
		}
	}
	wantBack := predictor.Backtest(store.Select(f), cfg)
	if gotBack := e.Backtest(e.Snapshot(), f, cfg); gotBack != wantBack {
		t.Errorf("engine backtest = %+v, direct = %+v", gotBack, wantBack)
	}
}

func TestPredictedSVGMemoizedAndMarked(t *testing.T) {
	store := amdahlStore([]int{1, 2, 4, 8})
	e := New(store)
	f := dataset.Filter{}
	cfg := predictedConfig(1, 2, 4, 8, 16, 32)

	svg, err := e.PredictedSVG(e.Snapshot(), "exectime_vs_nodes", f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(svg, []byte("stroke-dasharray")) || !bytes.Contains(svg, []byte("(predicted)")) {
		t.Error("predicted SVG lacks overlay marking")
	}
	again, err := e.PredictedSVG(e.Snapshot(), "exectime_vs_nodes", f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &svg[0] != &again[0] {
		t.Error("repeated predicted SVG was re-rendered instead of cached")
	}
	if _, err := e.PredictedSVG(e.Snapshot(), "nope", f, cfg); err == nil {
		t.Error("unknown plot name must error")
	}
	// The plain SVG stays overlay-free: the kinds do not bleed into each
	// other.
	plain, err := e.SVG(e.Snapshot(), "exectime_vs_nodes", f)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte("(predicted)")) {
		t.Error("plain SVG gained the predicted overlay")
	}
}

func TestPredictedAdviceReturnsDefensiveCopy(t *testing.T) {
	e := New(amdahlStore([]int{1, 2, 4, 8}))
	f := dataset.Filter{AppName: "lammps"}
	cfg := predictedConfig(1, 2, 4, 8, 16)
	rows := e.PredictedAdvice(e.Snapshot(), f, pareto.ByTime, cfg)
	if len(rows) == 0 {
		t.Fatal("no predicted advice")
	}
	rows[0].ScenarioID = "mutated"
	fresh := e.PredictedAdvice(e.Snapshot(), f, pareto.ByTime, cfg)
	if fresh[0].ScenarioID == "mutated" {
		t.Error("cache shared its backing slice with the caller")
	}
}
