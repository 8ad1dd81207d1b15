package predictor

import (
	"math"
	"strings"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/pricing"
)

// amdahlPoint fabricates a measured point following T(n) = t1*(s+(1-s)/n)
// priced at the default southcentralus rate for the SKU.
func amdahlPoint(t *testing.T, sku, alias string, n int, t1, serial float64) dataset.Point {
	t.Helper()
	sec := t1 * (serial + (1-serial)/float64(n))
	cost, err := pricing.Default().Cost("southcentralus", sku, n, sec)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.Point{
		ScenarioID:  alias + "-n" + string(rune('a'+n)),
		AppName:     "lammps",
		SKU:         sku,
		SKUAlias:    alias,
		NNodes:      n,
		PPN:         120,
		InputDesc:   "atoms=864M",
		ExecTimeSec: sec,
		CostUSD:     cost,
	}
}

func testConfig() Config {
	return Config{Prices: pricing.Default(), Region: "southcentralus"}
}

func amdahlSweep(t *testing.T, nodes []int) []dataset.Point {
	t.Helper()
	var pts []dataset.Point
	for _, n := range nodes {
		pts = append(pts, amdahlPoint(t, "Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05))
	}
	return pts
}

func TestFitSelectsAmdahlOnAmdahlData(t *testing.T) {
	fits := Fit(amdahlSweep(t, []int{1, 2, 4, 8, 16}), testConfig())
	if len(fits) != 1 {
		t.Fatalf("fits = %d, want 1", len(fits))
	}
	g := fits[0]
	if g.Model != ModelAmdahl {
		t.Errorf("model = %s, want amdahl", g.Model)
	}
	if g.R2 < 0.999 {
		t.Errorf("R2 = %v", g.R2)
	}
	if math.Abs(g.Amdahl.Serial-0.05) > 0.01 {
		t.Errorf("Serial = %v, want ~0.05", g.Amdahl.Serial)
	}
	want := 1000 * (0.05 + 0.95/32)
	if got := g.Predict(32); math.Abs(got-want) > want*0.05 {
		t.Errorf("Predict(32) = %v, want ~%v", got, want)
	}

	// Extrapolating one doubling past an unordered series with a failed
	// point in it: the failed point does not drag the curve, and the
	// caller's slice keeps its order.
	pts := amdahlSweep(t, []int{8, 1, 4, 2, 16})
	pts[4].Failed, pts[4].ExecTimeSec = true, 0
	fits = Fit(pts, testConfig())
	if len(fits) != 1 {
		t.Fatalf("fits = %d, want 1", len(fits))
	}
	want = 1000 * (0.05 + 0.95/16)
	if got := fits[0].Predict(16); math.Abs(got-want) > want*0.05 {
		t.Errorf("Predict(16) from 1-8 nodes = %v, want ~%v", got, want)
	}
	for i, n := range []int{8, 1, 4, 2, 16} {
		if pts[i].NNodes != n {
			t.Fatalf("Fit reordered its input: position %d has %d nodes, want %d", i, pts[i].NNodes, n)
		}
	}
}

func TestFitSelectsPowerLawOnPowerLawData(t *testing.T) {
	// T(n) = 900 * n^-0.6: sub-linear scaling no Amdahl curve matches well.
	var pts []dataset.Point
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		p := amdahlPoint(t, "Standard_HB120rs_v3", "hb120rs_v3", n, 1, 0)
		p.ExecTimeSec = 900 * math.Pow(float64(n), -0.6)
		pts = append(pts, p)
	}
	fits := Fit(pts, testConfig())
	if len(fits) != 1 {
		t.Fatalf("fits = %d, want 1", len(fits))
	}
	if fits[0].Model != ModelPowerLaw {
		t.Errorf("model = %s, want powerlaw", fits[0].Model)
	}
	want := 900 * math.Pow(64, -0.6)
	if got := fits[0].Predict(64); math.Abs(got-want) > want*0.05 {
		t.Errorf("Predict(64) = %v, want ~%v", got, want)
	}
}

func TestFitGates(t *testing.T) {
	cfg := testConfig()
	// Too few distinct node counts.
	if fits := Fit(amdahlSweep(t, []int{1, 2}), cfg); len(fits) != 0 {
		t.Errorf("2 node counts passed the evidence gate: %d fits", len(fits))
	}
	// Noise that no scaling model explains fails the R² gate.
	noisy := amdahlSweep(t, []int{1, 2, 4, 8})
	noisy[0].ExecTimeSec = 10
	noisy[1].ExecTimeSec = 4000
	noisy[2].ExecTimeSec = 17
	noisy[3].ExecTimeSec = 2500
	if fits := Fit(noisy, cfg); len(fits) != 0 {
		t.Errorf("noise passed the R² gate: %+v", fits)
	}
	// Failed points are not evidence.
	failed := amdahlSweep(t, []int{1, 2})
	for _, n := range []int{4, 8} {
		p := amdahlPoint(t, "Standard_HB120rs_v3", "hb120rs_v3", n, 1000, 0.05)
		p.Failed = true
		p.ExecTimeSec = 0
		failed = append(failed, p)
	}
	if fits := Fit(failed, cfg); len(fits) != 0 {
		t.Errorf("failed points counted as evidence: %d fits", len(fits))
	}
}

func TestRowsFillOnlyHoles(t *testing.T) {
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	cfg := testConfig()
	cfg.Grid = []int{1, 2, 4, 8, 16, 32}
	rows := Rows(pts, cfg)
	var predicted []Row
	for _, r := range rows {
		if r.Predicted {
			predicted = append(predicted, r)
			continue
		}
	}
	if len(rows)-len(predicted) != len(pts) {
		t.Errorf("measured rows = %d, want %d", len(rows)-len(predicted), len(pts))
	}
	if len(predicted) != 2 {
		t.Fatalf("predicted rows = %d, want 2 (16 and 32)", len(predicted))
	}
	for _, r := range predicted {
		if r.NNodes != 16 && r.NNodes != 32 {
			t.Errorf("predicted at measured count %d", r.NNodes)
		}
		if !strings.HasPrefix(r.ScenarioID, PredictedIDPrefix) {
			t.Errorf("predicted ID %q lacks %q prefix", r.ScenarioID, PredictedIDPrefix)
		}
		if r.Model != ModelAmdahl {
			t.Errorf("model = %s", r.Model)
		}
		if r.TimeLoSec > r.ExecTimeSec || r.TimeHiSec < r.ExecTimeSec {
			t.Errorf("interval [%v, %v] does not contain estimate %v", r.TimeLoSec, r.TimeHiSec, r.ExecTimeSec)
		}
		wantCost, _ := pricing.Default().Cost("southcentralus", r.SKU, r.NNodes, r.ExecTimeSec)
		if math.Abs(r.CostUSD-wantCost) > 1e-12 {
			t.Errorf("cost = %v, want %v", r.CostUSD, wantCost)
		}
		if r.CostLoUSD > r.CostUSD || r.CostHiUSD < r.CostUSD {
			t.Errorf("cost interval [%v, %v] does not contain %v", r.CostLoUSD, r.CostHiUSD, r.CostUSD)
		}
	}
}

func TestConsistencyFullyMeasuredGridMatchesMeasuredAdvice(t *testing.T) {
	// On a fully measured grid the predictor must synthesize nothing: the
	// merged advice is exactly the measured advice, with no phantom rows.
	pts := amdahlSweep(t, []int{1, 2, 4, 8, 16})
	for _, n := range []int{1, 2, 4, 8, 16} {
		pts = append(pts, amdahlPoint(t, "Standard_HC44rs", "hc44rs", n, 1600, 0.10))
	}
	cfg := testConfig()
	cfg.Grid = []int{1, 2, 4, 8, 16}
	for _, order := range []pareto.SortOrder{pareto.ByTime, pareto.ByCost} {
		measured := pareto.Advice(pts, order)
		merged := Advice(pts, cfg, order)
		if len(merged) != len(measured) {
			t.Fatalf("merged advice = %d rows, measured = %d", len(merged), len(measured))
		}
		for i := range merged {
			if merged[i].Predicted {
				t.Errorf("phantom predicted row %s on a fully measured grid", merged[i].ScenarioID)
			}
			if merged[i].ScenarioID != measured[i].ScenarioID {
				t.Errorf("row %d: %s != %s", i, merged[i].ScenarioID, measured[i].ScenarioID)
			}
		}
	}
}

func TestAdviceMergesPredictedBeyondSweep(t *testing.T) {
	// Measured to 8 nodes on a well-scaling workload; predicting to 32 must
	// extend the fast end of the front with marked rows, while every
	// measured front row survives unless a prediction strictly dominates it.
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	cfg := testConfig()
	cfg.Grid = []int{1, 2, 4, 8, 16, 32}
	merged := Advice(pts, cfg, pareto.ByTime)
	var sawPredicted bool
	for _, r := range merged {
		if r.Predicted {
			sawPredicted = true
			if r.NNodes != 16 && r.NNodes != 32 {
				t.Errorf("unexpected predicted front row at %d nodes", r.NNodes)
			}
		}
	}
	if !sawPredicted {
		t.Fatal("no predicted rows reached the front")
	}
	// The fastest row must now be the 32-node prediction.
	if !merged[0].Predicted || merged[0].NNodes != 32 {
		t.Errorf("fastest row = %+v, want the 32-node prediction", merged[0].Point)
	}
}

func TestFormatAdviceTableMarksPredicted(t *testing.T) {
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	cfg := testConfig()
	cfg.Grid = []int{16}
	table := FormatAdviceTable(Advice(pts, cfg, pareto.ByTime))
	if !strings.Contains(table, "Source") {
		t.Errorf("table lacks Source column:\n%s", table)
	}
	if !strings.Contains(table, "measured") {
		t.Errorf("table lacks measured marking:\n%s", table)
	}
	if !strings.Contains(table, "predicted/amdahl") {
		t.Errorf("table lacks predicted marking:\n%s", table)
	}
}

func TestRowsWithoutPricesAreMeasuredOnly(t *testing.T) {
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	rows := Rows(pts, Config{Grid: []int{16, 32}})
	for _, r := range rows {
		if r.Predicted {
			t.Fatalf("prediction without a price book: %+v", r)
		}
	}
	if len(rows) != len(pts) {
		t.Errorf("rows = %d, want %d", len(rows), len(pts))
	}
}

func TestDefaultGrid(t *testing.T) {
	pts := amdahlSweep(t, []int{1, 3, 8})
	got := DefaultGrid(pts)
	want := []int{1, 2, 3, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("grid = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grid = %v, want %v", got, want)
		}
	}
}

func TestConfigKeyDiscriminates(t *testing.T) {
	a := Config{Grid: []int{1, 2}, Region: "eastus"}
	b := Config{Grid: []int{1, 2, 4}, Region: "eastus"}
	c := Config{Grid: []int{1, 2}, Region: "westeurope"}
	d := Config{Grid: []int{1, 2}, Region: "eastus", MinR2: 0.5}
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true, d.Key(): true}
	if len(keys) != 4 {
		t.Errorf("keys collide: %v", keys)
	}
	if a.Key() != (Config{Grid: []int{1, 2}, Region: "EastUS"}).Key() {
		t.Error("region case folding missing")
	}
}

func TestBacktestOnCleanModelData(t *testing.T) {
	// Exact Amdahl data: the leave-one-out error of the Amdahl family (and
	// of the selected model) must be tiny; the power law cannot track the
	// serial floor as well.
	pts := amdahlSweep(t, []int{1, 2, 4, 8, 16, 32})
	rep := Backtest(pts, testConfig())
	if rep.Groups != 1 {
		t.Fatalf("groups = %d", rep.Groups)
	}
	if rep.Held != len(pts) {
		t.Errorf("held = %d, want %d", rep.Held, len(pts))
	}
	if rep.AmdahlMAPE > 1 {
		t.Errorf("amdahl MAPE = %v%%, want < 1%%", rep.AmdahlMAPE)
	}
	if rep.SelectedMAPE > 1 {
		t.Errorf("selected MAPE = %v%%, want < 1%%", rep.SelectedMAPE)
	}
	if !strings.Contains(rep.String(), "MAPE") {
		t.Errorf("report = %q", rep.String())
	}
}

func TestBacktestInsufficientData(t *testing.T) {
	rep := Backtest(amdahlSweep(t, []int{1, 2}), testConfig())
	if rep.Held != 0 || rep.Groups != 0 {
		t.Errorf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "insufficient") {
		t.Errorf("report = %q", rep.String())
	}
}

func TestIntervalGateDropsSwallowedPredictions(t *testing.T) {
	// A fit whose residual spread exceeds the predicted time cannot even
	// rule out instantaneous execution; such extrapolations must be dropped,
	// not served as advice.
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	cfg := testConfig()
	cfg.Grid = []int{16, 32}
	// An absurd interval multiplier makes every interval swallow its
	// estimate.
	cfg.IntervalZ = 1e9
	// Perfect fits have zero residuals and survive any multiplier; perturb
	// one point so ResidSD > 0.
	pts[0].ExecTimeSec *= 1.02
	if rows := Rows(pts, cfg); len(rows) != len(pts) {
		for _, r := range rows {
			if r.Predicted {
				t.Errorf("swallowed prediction served: %+v interval [%v, %v]", r.Point, r.TimeLoSec, r.TimeHiSec)
			}
		}
	}
}

func TestPredictedIDsUniqueAcrossInputs(t *testing.T) {
	// Two groups differing only in application input predict at the same
	// node counts; their synthesized IDs must not collide, or merged advice
	// would render one group's rows with the other's numbers.
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	for _, n := range []int{1, 2, 4, 8} {
		p := amdahlPoint(t, "Standard_HB120rs_v3", "hb120rs_v3", n, 2500, 0.05)
		p.InputDesc = "atoms=4B"
		p.ScenarioID += "-big"
		pts = append(pts, p)
	}
	cfg := testConfig()
	cfg.Grid = []int{16, 32}
	seen := make(map[string]string)
	for _, r := range Rows(pts, cfg) {
		if !r.Predicted {
			continue
		}
		if prev, ok := seen[r.ScenarioID]; ok {
			t.Errorf("ID %q used by inputs %q and %q", r.ScenarioID, prev, r.InputDesc)
		}
		seen[r.ScenarioID] = r.InputDesc
	}
	if len(seen) != 4 {
		t.Errorf("predicted rows = %d, want 4 (2 inputs x 2 holes)", len(seen))
	}
}

func TestSynthesizeDedupesGridRepeats(t *testing.T) {
	// parseGrid accepts user-supplied duplicates; they must not yield
	// duplicate predicted rows.
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	cfg := testConfig()
	cfg.Grid = []int{16, 16, 32, 32, 32}
	var predicted int
	for _, r := range Rows(pts, cfg) {
		if r.Predicted {
			predicted++
		}
	}
	if predicted != 2 {
		t.Errorf("predicted rows = %d, want 2", predicted)
	}
}

func TestBacktestSelectedMAPERespectsQualityGate(t *testing.T) {
	// A group noisy enough that no refit clears the R² gate produces no
	// selected-model folds: the advice path would serve none of those
	// predictions, so they must not shape the trust number either.
	pts := amdahlSweep(t, []int{1, 2, 4, 8, 16})
	times := []float64{1000, 300, 700, 200, 600}
	for i := range pts {
		pts[i].ExecTimeSec = times[i]
	}
	rep := Backtest(pts, testConfig())
	if rep.Groups != 1 {
		t.Fatalf("groups = %d", rep.Groups)
	}
	if rep.Held != 0 {
		t.Errorf("held = %d, want 0 (no refit clears the gate)", rep.Held)
	}
	if rep.SelectedMAPE != 0 {
		t.Errorf("selected MAPE = %v, want 0 with no qualifying folds", rep.SelectedMAPE)
	}
	if rep.AmdahlMAPE == 0 || rep.PowerLawMAPE == 0 {
		t.Errorf("family MAPEs should still be diagnosed: %+v", rep)
	}
	if !strings.Contains(rep.String(), "quality gate") {
		t.Errorf("report = %q", rep.String())
	}
}

func TestBacktestCoversGroupsFitWouldServe(t *testing.T) {
	// A group with exactly MinPoints distinct node counts gets served
	// predictions, so the trust report must cover it too rather than claim
	// insufficient data.
	pts := amdahlSweep(t, []int{1, 2, 4})
	cfg := testConfig()
	cfg.Grid = []int{8}
	served := false
	for _, r := range Rows(pts, cfg) {
		served = served || r.Predicted
	}
	if !served {
		t.Fatal("fixture not served predictions; test premise broken")
	}
	rep := Backtest(pts, cfg)
	if rep.Groups != 1 {
		t.Errorf("groups = %d, want 1 (Fit serves this group)", rep.Groups)
	}
	if rep.Held == 0 {
		t.Errorf("held = 0; served group contributed nothing: %+v", rep)
	}
}

func TestAdviceKeepsValuesOfDuplicateIDs(t *testing.T) {
	// Re-collections can append two successful points with the same
	// scenario ID but different measurements; the front row must carry the
	// values the Pareto computation kept, not whichever duplicate mapped
	// last.
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	dup := pts[len(pts)-1] // same ID, worse measurement appended later
	dup.ExecTimeSec *= 2
	dup.CostUSD *= 2
	pts = append(pts, dup)
	rows := Advice(pts, Config{}, pareto.ByTime)
	want := pareto.Advice(pts, pareto.ByTime)
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i].ExecTimeSec != want[i].ExecTimeSec || rows[i].CostUSD != want[i].CostUSD {
			t.Errorf("row %d = %.0fs/$%.4f, want %.0fs/$%.4f",
				i, rows[i].ExecTimeSec, rows[i].CostUSD, want[i].ExecTimeSec, want[i].CostUSD)
		}
	}
}

func TestOverlayCurveCoversGridBelowMeasuredRange(t *testing.T) {
	// Grid counts below the measured range get synthesized rows, so the
	// drawn curve must span them too.
	pts := amdahlSweep(t, []int{8, 16, 32})
	cfg := testConfig()
	cfg.Grid = []int{1, 2, 4, 8, 16, 32}
	store := dataset.NewStore()
	store.AddAll(pts)
	over := Overlay(plot.BuildSet(store.Select(dataset.Filter{})), pts, cfg)
	series := over.ExecTimeVsNodes.Series
	curve := series[len(series)-1]
	if !curve.Dashed {
		t.Fatalf("last series is not the predicted curve: %+v", curve)
	}
	if curve.Points[0].X != 1 {
		t.Errorf("curve starts at %v nodes, want 1 (grid extends below measurements)", curve.Points[0].X)
	}
}
