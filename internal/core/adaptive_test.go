package core

import (
	"math"
	"testing"

	"hpcadvisor/internal/config"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/scenario"
)

func paperLAMMPSConfig(t *testing.T) *config.Config {
	return testConfig(t, "lammps",
		[]string{"Standard_HB120rs_v3", "Standard_HB120rs_v2", "Standard_HC44rs"},
		"[1, 2, 3, 4, 8, 16]", "  BOXFACTOR: \"30\"\n")
}

func TestAdaptiveCollectionStaysUnderBudget(t *testing.T) {
	adv := New("mysubscription")
	cfg := paperLAMMPSConfig(t)
	dep, err := adv.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20.0 // the full sweep costs ~$55
	report, err := adv.CollectAdaptive(dep.Name, cfg, budget, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed == 0 {
		t.Fatal("nothing collected")
	}
	if report.Completed+report.Skipped+report.Failed != 18 {
		t.Errorf("tasks unaccounted: %+v", report)
	}
	if report.Skipped == 0 {
		t.Error("a $20 budget must skip part of a $55 sweep")
	}
	// The budget check happens before each step, so the overshoot is at
	// most one scenario's cost; generously, 2x budget.
	if report.CollectionCostUSD > budget*2 {
		t.Errorf("cost %.2f far beyond budget %.2f", report.CollectionCostUSD, budget)
	}
	// Skipped tasks carry the reason.
	for _, task := range adv.TaskList(dep.Name).ByStatus(scenario.StatusSkipped) {
		if task.Error == "" {
			t.Error("skip reason missing")
		}
	}
}

func TestAdaptiveCollectionWithAmpleBudgetMatchesFullFront(t *testing.T) {
	full := New("mysubscription")
	cfg := paperLAMMPSConfig(t)
	depF, err := full.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Collect(depF.Name, cfg, CollectOptions{}); err != nil {
		t.Fatal(err)
	}

	adaptive := New("mysubscription")
	depA, err := adaptive.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := adaptive.CollectAdaptive(depA.Name, cfg, 10000, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 18 || report.Skipped != 0 {
		t.Fatalf("ample budget should drain the sweep: %+v", report)
	}
	if r := pareto.Recall(full.Store.Select(dataset.Filter{}), adaptive.Store.Select(dataset.Filter{})); r != 1 {
		t.Errorf("front recall = %v", r)
	}
}

func TestAdaptiveCollectionFrontQualityPerDollar(t *testing.T) {
	// The planner prefers high-information scenarios, so even a modest
	// budget should recover most of the true front.
	full := New("mysubscription")
	cfg := paperLAMMPSConfig(t)
	depF, _ := full.DeployCreate(cfg)
	if _, err := full.Collect(depF.Name, cfg, CollectOptions{}); err != nil {
		t.Fatal(err)
	}

	adaptive := New("mysubscription")
	depA, _ := adaptive.DeployCreate(cfg)
	if _, err := adaptive.CollectAdaptive(depA.Name, cfg, 30, CollectOptions{}); err != nil {
		t.Fatal(err)
	}
	recall := pareto.Recall(full.Store.Select(dataset.Filter{}), adaptive.Store.Select(dataset.Filter{}))
	if recall < 0.5 {
		t.Errorf("recall %.2f at $30 budget; planner is wasting spend", recall)
	}
}

func TestAdaptiveCollectionValidation(t *testing.T) {
	adv := New("mysubscription")
	cfg := paperLAMMPSConfig(t)
	dep, err := adv.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.CollectAdaptive(dep.Name, cfg, 0, CollectOptions{}); err == nil {
		t.Error("zero budget should fail")
	}
	if _, err := adv.CollectAdaptive("ghost", cfg, 10, CollectOptions{}); err == nil {
		t.Error("unknown deployment should fail")
	}
}

// TestAdaptiveCollectionCostDeterministic: identical adaptive runs report
// bit-identical collection costs. Node-seconds are priced in sorted SKU
// order; summing them in map order made the last bits vary run to run.
func TestAdaptiveCollectionCostDeterministic(t *testing.T) {
	cfg := paperLAMMPSConfig(t)
	var first uint64
	for i := 0; i < 40; i++ {
		adv := New("mysubscription")
		dep, err := adv.DeployCreate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := adv.CollectAdaptive(dep.Name, cfg, 1000, CollectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bits := math.Float64bits(report.CollectionCostUSD)
		if i == 0 {
			first = bits
			continue
		}
		if bits != first {
			t.Fatalf("run %d cost %.17g differs from run 0's %.17g",
				i, report.CollectionCostUSD, math.Float64frombits(first))
		}
	}
}
