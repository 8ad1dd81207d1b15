// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark rebuilds the corresponding artifact and reports the shape
// statistics that EXPERIMENTS.md records (front size, speedup, efficiency
// peaks). The printable artifacts themselves (series, SVGs, advice tables)
// are produced by cmd/repro.
//
// Run with: go test -bench=. -benchmem
package hpcadvisor_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"hpcadvisor"
	apipkg "hpcadvisor/internal/api"
	"hpcadvisor/internal/batchsim"
	"hpcadvisor/internal/catalog"
	"hpcadvisor/internal/cli"
	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/queryengine"
	"hpcadvisor/internal/regression"
	"hpcadvisor/internal/runner"
	"hpcadvisor/internal/sampler"
	"hpcadvisor/internal/scenario"
	"hpcadvisor/internal/storage"

	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"hpcadvisor/internal/service"
)

//
// Shared fixtures: the paper's two sweeps, collected once.
//

// The SKU order puts HB120rs_v3 first: the figures are order independent,
// and the Section III-F sampling strategies can only discard a weak VM type
// after a stronger one has produced evidence (assessing the expected-best
// SKU first is the natural way to run the tool).
const lammpsSweepConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HB120rs_v2
  - Standard_HC44rs
rgprefix: bench
nnodes: [1, 2, 3, 4, 8, 16]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "30"
`

const openfoamSweepConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HB120rs_v2
  - Standard_HC44rs
rgprefix: bench
nnodes: [1, 2, 3, 4, 8, 16]
appname: openfoam
region: southcentralus
ppr: 100
appinputs:
  mesh: "40 16 16"
`

// A small OpenFOAM mesh that stops scaling early, the workload where the
// bottleneck-aware strategy has signal to act on.
const smallFoamSweepConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
rgprefix: bench
nnodes: [1, 2, 3, 4, 8, 16]
appname: openfoam
region: southcentralus
ppr: 100
appinputs:
  mesh: "20 12 12"
`

var (
	sweepOnce   sync.Once
	lammpsData  *dataset.Store
	foamData    *dataset.Store
	sweepReport *collector.Report
)

func paperSweeps(b *testing.B) (*dataset.Store, *dataset.Store) {
	b.Helper()
	sweepOnce.Do(func() {
		lammpsData, sweepReport = collectSweep(lammpsSweepConfig)
		foamData, _ = collectSweep(openfoamSweepConfig)
	})
	return lammpsData, foamData
}

func collectSweep(cfgText string) (*dataset.Store, *collector.Report) {
	cfg, err := config.Parse([]byte(cfgText))
	if err != nil {
		panic(err)
	}
	adv := core.New(cfg.Subscription)
	dep, err := adv.DeployCreate(cfg)
	if err != nil {
		panic(err)
	}
	report, err := adv.Collect(dep.Name, cfg, core.CollectOptions{})
	if err != nil {
		panic(err)
	}
	return adv.Store, report
}

//
// Listing 1 — main configuration file.
//

func BenchmarkListing1ConfigParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := hpcadvisor.ParseConfig([]byte(lammpsSweepConfig))
		if err != nil {
			b.Fatal(err)
		}
		if cfg.ScenarioCount() != 18 {
			b.Fatalf("count = %d", cfg.ScenarioCount())
		}
	}
}

//
// Table I — runner environment variables.
//

func BenchmarkTableIEnvBuild(b *testing.B) {
	env := runner.Env{
		NNodes: 16, PPN: 120, SKU: "Standard_HB120rs_v3",
		Hosts:      hosts(16),
		TaskRunDir: "/data/jobs/x", HostfilePath: "/data/jobs/x/hostfile",
		AppInputs: map[string]string{"BOXFACTOR": "30"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vars := env.Vars()
		if len(vars) != 8 {
			b.Fatalf("vars = %d", len(vars))
		}
	}
}

func hosts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "node-" + string(rune('a'+i))
	}
	return out
}

//
// Listing 2 — runner contract: model-backed task emits the HPCADVISORVAR
// protocol.
//

func BenchmarkListing2RunnerContract(b *testing.B) {
	adv := core.New("bench")
	app, err := adv.Apps.Get("lammps")
	if err != nil {
		b.Fatal(err)
	}
	w, err := app.Parse(map[string]string{"BOXFACTOR": "30"})
	if err != nil {
		b.Fatal(err)
	}
	env := runner.Env{NNodes: 16, PPN: 120, SKU: "Standard_HB120rs_v3", Hosts: hosts(16)}
	sku := catalog.Default().MustLookup("hb120rs_v3")
	fn := runner.NewTaskFunc(app, w, env)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := fn(batchsim.TaskContext{SKU: sku, NodeIDs: env.Hosts})
		vars := runner.ParseVars(res.Stdout)
		if vars["LAMMPSSTEPS"] != "100" {
			b.Fatalf("vars = %v", vars)
		}
	}
}

//
// Algorithm 1 — the collection loop end to end on a small sweep.
//

func BenchmarkAlgorithm1Collect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store, report := collectSweep(`subscription: s
skus: [Standard_HB120rs_v3, Standard_HC44rs]
rgprefix: bench
nnodes: [1, 2, 4]
appname: lammps
region: southcentralus
appinputs:
  BOXFACTOR: "10"
`)
		if store.Len() != 6 || report.Completed != 6 {
			b.Fatalf("collected %d", store.Len())
		}
	}
}

//
// Figures 2-5 — LAMMPS 864M atoms on the paper's three SKUs.
//

func BenchmarkFigure2ExecTimeVsNodes(b *testing.B) {
	store, _ := paperSweeps(b)
	b.ResetTimer()
	var p plot.Plot
	for i := 0; i < b.N; i++ {
		p = plot.ExecTimeVsNodes(store, dataset.Filter{AppName: "lammps"})
		if len(p.Series) != 3 {
			b.Fatalf("series = %d", len(p.Series))
		}
	}
	// Shape metric: slowest single-node time (paper magnitude: thousands).
	_, _, _, ymax := p.Bounds()
	b.ReportMetric(ymax, "max_exectime_s")
}

func BenchmarkFigure3ExecTimeVsCost(b *testing.B) {
	store, _ := paperSweeps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plot.ExecTimeVsCost(store, dataset.Filter{AppName: "lammps"})
		if len(p.Series) != 3 {
			b.Fatalf("series = %d", len(p.Series))
		}
	}
}

func BenchmarkFigure4Speedup(b *testing.B) {
	store, _ := paperSweeps(b)
	b.ResetTimer()
	var maxSpeedup float64
	for i := 0; i < b.N; i++ {
		p := plot.Speedup(store, dataset.Filter{AppName: "lammps"})
		maxSpeedup = 0
		for _, s := range p.Series {
			for _, pt := range s.Points {
				if pt.Y > maxSpeedup {
					maxSpeedup = pt.Y
				}
			}
		}
	}
	// Paper Figure 4 tops out around 26x.
	b.ReportMetric(maxSpeedup, "max_speedup")
}

func BenchmarkFigure5Efficiency(b *testing.B) {
	store, _ := paperSweeps(b)
	b.ResetTimer()
	var peak float64
	for i := 0; i < b.N; i++ {
		p := plot.Efficiency(store, dataset.Filter{AppName: "lammps"})
		peak = 0
		for _, s := range p.Series {
			for _, pt := range s.Points {
				if pt.Y > peak {
					peak = pt.Y
				}
			}
		}
	}
	// Paper Figure 5 shows super-linear efficiency up to ~1.7.
	b.ReportMetric(peak, "peak_efficiency")
}

//
// Figure 6 — Pareto front scatter.
//

func BenchmarkFigure6ParetoFront(b *testing.B) {
	store, _ := paperSweeps(b)
	pts := store.Select(dataset.Filter{AppName: "lammps"})
	b.ResetTimer()
	var front []dataset.Point
	for i := 0; i < b.N; i++ {
		front = pareto.Front(pts)
	}
	b.ReportMetric(float64(len(front)), "front_rows")
}

//
// Listings 3 and 4 — the advice tables.
//

func BenchmarkListing3OpenFOAMAdvice(b *testing.B) {
	_, foam := paperSweeps(b)
	b.ResetTimer()
	var rows []dataset.Point
	for i := 0; i < b.N; i++ {
		rows = pareto.Advice(foam.Select(dataset.Filter{AppName: "openfoam"}), pareto.ByTime)
		if len(rows) == 0 {
			b.Fatal("no advice")
		}
	}
	// Shape check from the paper: hb120rs_v3 at 16 nodes is the fastest
	// row.
	if rows[0].SKUAlias != "hb120rs_v3" || rows[0].NNodes != 16 {
		b.Fatalf("fastest row = %s/%d", rows[0].SKUAlias, rows[0].NNodes)
	}
	b.ReportMetric(float64(len(rows)), "front_rows")
	b.ReportMetric(rows[0].ExecTimeSec, "fastest_s")
}

func BenchmarkListing4LAMMPSAdvice(b *testing.B) {
	lammps, _ := paperSweeps(b)
	b.ResetTimer()
	var rows []dataset.Point
	for i := 0; i < b.N; i++ {
		rows = pareto.Advice(lammps.Select(dataset.Filter{AppName: "lammps"}), pareto.ByTime)
	}
	// The paper's Listing 4 front: hb120rs_v3 at 16, 8, 4, 3 nodes.
	if len(rows) != 4 {
		b.Fatalf("front rows = %d, want 4", len(rows))
	}
	wantNodes := []int{16, 8, 4, 3}
	for i, r := range rows {
		if r.SKUAlias != "hb120rs_v3" || r.NNodes != wantNodes[i] {
			b.Fatalf("row %d = %s/%d, want hb120rs_v3/%d", i, r.SKUAlias, r.NNodes, wantNodes[i])
		}
	}
	b.ReportMetric(rows[0].ExecTimeSec, "fastest_s")
	b.ReportMetric(rows[0].CostUSD, "fastest_cost_usd")
}

//
// Table II — CLI command dispatch.
//

func BenchmarkTableIICLIDispatch(b *testing.B) {
	dir := b.TempDir()
	state := filepath.Join(dir, ".hpcadvisor")
	cfgPath := filepath.Join(dir, "config.yaml")
	if err := os.WriteFile(cfgPath, []byte(`subscription: s
skus: [Standard_HB120rs_v3]
rgprefix: bench
nnodes: [1, 2]
appname: lammps
region: southcentralus
appinputs:
  BOXFACTOR: "10"
`), 0o644); err != nil {
		b.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := cli.Run([]string{"-state", state, "deploy", "create", "-c", cfgPath}, &out, &errb); code != 0 {
		b.Fatal(errb.String())
	}
	if code := cli.Run([]string{"-state", state, "collect", "-c", cfgPath}, &out, &errb); code != 0 {
		b.Fatal(errb.String())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if code := cli.Run([]string{"-state", state, "advice"}, &out, &errb); code != 0 {
			b.Fatal(errb.String())
		}
		if !strings.Contains(out.String(), "Exectime(s)") {
			b.Fatal("bad advice output")
		}
	}
}

//
// Section III-F — sampler ablation: strategies vs full sweep.
//

func benchmarkSampler(b *testing.B, name, cfgText string) {
	cfg, err := config.Parse([]byte(cfgText))
	if err != nil {
		b.Fatal(err)
	}
	fullStore, fullReport := fullSweepFor(cfgText)
	b.ResetTimer()
	var outcome sampler.Outcome
	for i := 0; i < b.N; i++ {
		adv := core.New(cfg.Subscription)
		dep, err := adv.DeployCreate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		report, err := adv.Collect(dep.Name, cfg, core.CollectOptions{Sampler: name})
		if err != nil {
			b.Fatal(err)
		}
		outcome = sampler.Evaluate(name, fullStore, adv.Store,
			fullReport.CollectionCostUSD, report.CollectionCostUSD,
			report.Completed, report.Skipped)
	}
	b.ReportMetric(float64(outcome.Ran), "scenarios_run")
	b.ReportMetric(outcome.CostSavedPct, "cost_saved_pct")
	b.ReportMetric(outcome.FrontRecall*100, "front_recall_pct")
	b.ReportMetric(outcome.HypervolumeErrPct, "hv_err_pct")
}

var (
	fullSweepMu    sync.Mutex
	fullSweepCache = map[string]struct {
		store  *dataset.Store
		report *collector.Report
	}{}
)

func fullSweepFor(cfgText string) (*dataset.Store, *collector.Report) {
	fullSweepMu.Lock()
	defer fullSweepMu.Unlock()
	if c, ok := fullSweepCache[cfgText]; ok {
		return c.store, c.report
	}
	store, report := collectSweep(cfgText)
	fullSweepCache[cfgText] = struct {
		store  *dataset.Store
		report *collector.Report
	}{store, report}
	return store, report
}

// Each strategy is ablated on the workload where its signal exists:
// discarding on the LAMMPS SKU comparison, the regression perf-factor on the
// Amdahl-like OpenFOAM sweep, and the bottleneck strategy on a small mesh
// whose scaling saturates.
func BenchmarkSamplerAblationFull(b *testing.B) { benchmarkSampler(b, "full", lammpsSweepConfig) }
func BenchmarkSamplerAblationDiscard(b *testing.B) {
	benchmarkSampler(b, "discard", lammpsSweepConfig)
}
func BenchmarkSamplerAblationPerfFactor(b *testing.B) {
	benchmarkSampler(b, "perffactor", openfoamSweepConfig)
}
func BenchmarkSamplerAblationBottleneck(b *testing.B) {
	benchmarkSampler(b, "bottleneck", smallFoamSweepConfig)
}
func BenchmarkSamplerAblationCombined(b *testing.B) {
	benchmarkSampler(b, "combined", lammpsSweepConfig)
}

//
// Ablation: Algorithm 1 pool reuse vs naive pool-per-scenario.
//

func BenchmarkAblationPoolReuse(b *testing.B) {
	// Pool reuse is what Algorithm 1 does; the alternative recreates the
	// pool per scenario, paying boot+setup every time. The metric is billed
	// node-seconds.
	cfgText := `subscription: s
skus: [Standard_HB120rs_v3]
rgprefix: bench
nnodes: [1, 2, 4]
appname: lammps
region: southcentralus
appinputs:
  BOXFACTOR: "10"
`
	b.Run("reuse", func(b *testing.B) {
		var ns float64
		for i := 0; i < b.N; i++ {
			_, report := collectSweep(cfgText)
			ns = report.NodeSecondsBySKU["Standard_HB120rs_v3"]
		}
		b.ReportMetric(ns, "node_seconds")
	})
	b.Run("pool-per-scenario", func(b *testing.B) {
		var ns float64
		for i := 0; i < b.N; i++ {
			cfg, _ := config.Parse([]byte(cfgText))
			adv := core.New(cfg.Subscription)
			dep, err := adv.DeployCreate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// DeletePoolAfter + single-scenario lists force a fresh pool
			// (and a fresh boot+setup) per scenario.
			total := 0.0
			for _, n := range cfg.NNodes {
				one := *cfg
				one.NNodes = []int{n}
				report, err := adv.Collect(dep.Name, &one, core.CollectOptions{DeletePoolAfter: true})
				if err != nil {
					b.Fatal(err)
				}
				total += report.NodeSecondsBySKU["Standard_HB120rs_v3"]
				adv.SetTaskList(dep.Name, nil)
			}
			ns = total
		}
		b.ReportMetric(ns, "node_seconds")
	})
}

//
// Ablation: discard threshold sweep.
//

func BenchmarkAblationDiscardThreshold(b *testing.B) {
	fullStore, fullReport := fullSweepFor(lammpsSweepConfig)
	for _, margin := range []float64{0.05, 0.10, 0.25, 0.50} {
		name := "margin_" + strconv.FormatFloat(margin, 'f', 2, 64)
		b.Run(name, func(b *testing.B) {
			cfg, _ := config.Parse([]byte(lammpsSweepConfig))
			var outcome sampler.Outcome
			for i := 0; i < b.N; i++ {
				adv := core.New(cfg.Subscription)
				dep, err := adv.DeployCreate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				report, err := adv.Collect(dep.Name, cfg, core.CollectOptions{
					Planner: sampler.AggressiveDiscard{Margin: margin},
				})
				if err != nil {
					b.Fatal(err)
				}
				outcome = sampler.Evaluate("discard", fullStore, adv.Store,
					fullReport.CollectionCostUSD, report.CollectionCostUSD,
					report.Completed, report.Skipped)
			}
			b.ReportMetric(float64(outcome.Ran), "scenarios_run")
			b.ReportMetric(outcome.FrontRecall*100, "front_recall_pct")
		})
	}
}

//
// Ablation: regression family for the perf-factor strategy.
//

func BenchmarkAblationFitFamily(b *testing.B) {
	store, _ := paperSweeps(b)
	pts := store.Select(dataset.Filter{AppName: "lammps", SKU: "hb120rs_v3"})
	if len(pts) < 5 {
		b.Fatal("fixture too small")
	}
	// Train on node counts 1-4, predict 8 and 16.
	var trainN []int
	var trainT, trainNf, obs, predA, predP []float64
	for _, p := range pts {
		if p.NNodes <= 4 {
			trainN = append(trainN, p.NNodes)
			trainT = append(trainT, p.ExecTimeSec)
			trainNf = append(trainNf, float64(p.NNodes))
		} else {
			obs = append(obs, p.ExecTimeSec)
		}
	}
	b.Run("amdahl", func(b *testing.B) {
		var mape float64
		for i := 0; i < b.N; i++ {
			fit, err := regression.FitAmdahl(trainN, trainT)
			if err != nil {
				b.Fatal(err)
			}
			predA = predA[:0]
			for _, p := range pts {
				if p.NNodes > 4 {
					predA = append(predA, fit.Predict(p.NNodes))
				}
			}
			mape = regression.MeanAbsPctError(obs, predA)
		}
		b.ReportMetric(mape, "mape_pct")
	})
	b.Run("powerlaw", func(b *testing.B) {
		var mape float64
		for i := 0; i < b.N; i++ {
			fit, err := regression.FitPowerLaw(trainNf, trainT)
			if err != nil {
				b.Fatal(err)
			}
			predP = predP[:0]
			for _, p := range pts {
				if p.NNodes > 4 {
					predP = append(predP, fit.Predict(float64(p.NNodes)))
				}
			}
			mape = regression.MeanAbsPctError(obs, predP)
		}
		b.ReportMetric(mape, "mape_pct")
	})
}

//
// Ablation: skyline algorithm vs naive dominance scan.
//

func BenchmarkAblationSkyline(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]dataset.Point, 5000)
	for i := range pts {
		pts[i] = dataset.Point{
			ScenarioID:  scenarioName(i),
			ExecTimeSec: rng.Float64() * 1000,
			CostUSD:     rng.Float64() * 10,
		}
	}
	b.Run("skyline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(pareto.Front(pts)) == 0 {
				b.Fatal("empty front")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(pareto.FrontNaive(pts)) == 0 {
				b.Fatal("empty front")
			}
		}
	})
}

func scenarioName(i int) string {
	return "s" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

//
// Whole-pipeline throughput (config to advice).
//

func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := hpcadvisor.ParseConfig([]byte(`subscription: s
skus: [Standard_HB120rs_v3]
rgprefix: bench
nnodes: [1, 2, 4, 8]
appname: openfoam
region: southcentralus
appinputs:
  mesh: "40 16 16"
`))
		if err != nil {
			b.Fatal(err)
		}
		adv := hpcadvisor.New("s")
		dep, err := adv.DeployCreate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adv.Collect(dep.Name, cfg, hpcadvisor.CollectOptions{}); err != nil {
			b.Fatal(err)
		}
		if adv.AdviceTable(hpcadvisor.Filter{}, hpcadvisor.ByTime) == "" {
			b.Fatal("no advice")
		}
	}
}

//
// Extension: spot vs on-demand collection economics.
//

func BenchmarkSpotVsOnDemandCollection(b *testing.B) {
	run := func(b *testing.B, spot bool) {
		var report *collector.Report
		for i := 0; i < b.N; i++ {
			cfg, err := config.Parse([]byte(lammpsSweepConfig))
			if err != nil {
				b.Fatal(err)
			}
			adv := core.New(cfg.Subscription)
			dep, err := adv.DeployCreate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			report, err = adv.Collect(dep.Name, cfg, core.CollectOptions{
				UseSpot:     spot,
				MaxAttempts: 12,
			})
			if err != nil {
				b.Fatal(err)
			}
			if report.Completed != 18 {
				b.Fatalf("completed = %d (failed %d)", report.Completed, report.Failed)
			}
		}
		b.ReportMetric(report.CollectionCostUSD, "collection_usd")
		b.ReportMetric(float64(report.Attempts-report.Completed-report.Failed), "retries")
		b.ReportMetric(report.VirtualSeconds/3600, "cloud_hours")
	}
	b.Run("on-demand", func(b *testing.B) { run(b, false) })
	b.Run("spot", func(b *testing.B) { run(b, true) })
}

//
// Extension: concurrent multi-pool collection engine — time-to-advice.
//

// BenchmarkConcurrentCollection measures the same 3-SKU LAMMPS sweep
// collected sequentially and with the per-VM-type lane engine. ns/op is the
// real time to simulate the collection; cloud_hours_elapsed is the modeled
// wall-clock a user would wait for the pools in the cloud (the makespan of
// the lanes), which the engine reduces while producing a byte-identical
// dataset. cloud_speedup = sequential-equivalent hours / elapsed hours.
func BenchmarkConcurrentCollection(b *testing.B) {
	run := func(b *testing.B, pools int) {
		var report *collector.Report
		var n int
		for i := 0; i < b.N; i++ {
			cfg, err := config.Parse([]byte(lammpsSweepConfig))
			if err != nil {
				b.Fatal(err)
			}
			adv := core.New(cfg.Subscription)
			dep, err := adv.DeployCreate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			report, err = adv.Collect(dep.Name, cfg, core.CollectOptions{MaxParallelPools: pools})
			if err != nil {
				b.Fatal(err)
			}
			if report.Completed != 18 {
				b.Fatalf("completed = %d", report.Completed)
			}
			n = adv.Store.Len()
		}
		if n != 18 {
			b.Fatalf("dataset has %d points", n)
		}
		b.ReportMetric(report.VirtualSeconds/3600, "cloud_hours_seq_equiv")
		b.ReportMetric(report.ElapsedVirtualSeconds/3600, "cloud_hours_elapsed")
		b.ReportMetric(report.VirtualSeconds/report.ElapsedVirtualSeconds, "cloud_speedup")
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel-2", func(b *testing.B) { run(b, 2) })
	b.Run("parallel-3", func(b *testing.B) { run(b, 3) })
}

// BenchmarkCollectionResume measures finishing a journaled sweep that was
// interrupted halfway: the timed region is the resume run only — journal
// replay, ghost-restoring the nine durable scenarios, and executing the
// nine that never ran. Setup (the interrupted first lifetime) is untimed.
func BenchmarkCollectionResume(b *testing.B) {
	dir := b.TempDir()
	var report *collector.Report
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, err := config.Parse([]byte(lammpsSweepConfig))
		if err != nil {
			b.Fatal(err)
		}
		jp := filepath.Join(dir, fmt.Sprintf("sweep-%d.jnl", i))
		j, _, err := collector.OpenJournal(jp)
		if err != nil {
			b.Fatal(err)
		}
		adv := core.New(cfg.Subscription)
		dep, err := adv.DeployCreate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		interrupt := make(chan struct{})
		var once sync.Once
		completed := 0
		_, err = adv.Collect(dep.Name, cfg, core.CollectOptions{
			Journal:   j,
			Interrupt: interrupt,
			Progress: func(t *scenario.Task) {
				if t.Status == scenario.StatusCompleted {
					if completed++; completed >= 9 {
						once.Do(func() { close(interrupt) })
					}
				}
			},
		})
		if !errors.Is(err, collector.ErrInterrupted) {
			b.Fatalf("setup err = %v, want ErrInterrupted", err)
		}
		j.Close()

		// Second lifetime: fresh simulation, the store as the crash left it.
		j2, replay, err := collector.OpenJournal(jp)
		if err != nil {
			b.Fatal(err)
		}
		adv2 := core.New(cfg.Subscription)
		dep2, err := adv2.DeployCreate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		adv2.SetStore(adv.Store)
		b.StartTimer()

		report, err = adv2.Collect(dep2.Name, cfg, core.CollectOptions{
			Journal: j2,
			Resume:  replay,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		j2.Close()
		if report.Completed != 18 || report.Resumed != 9 {
			b.Fatalf("resume completed = %d resumed = %d", report.Completed, report.Resumed)
		}
		os.Remove(jp)
		b.StartTimer()
	}
	b.ReportMetric(float64(report.Resumed), "scenarios_restored")
	b.ReportMetric(float64(report.Rerun+report.Completed-report.Resumed), "scenarios_executed")
}

//
// Extension: indexed snapshot query engine — advice/plot serving
// throughput.
//

// queryBenchStore builds a deterministic ~n-point dataset shaped like many
// collections worth of sweeps: several apps, SKUs, inputs, node counts.
func queryBenchStore(n int) *dataset.Store {
	apps := []string{"lammps", "openfoam", "wrf", "gromacs"}
	skus := [][2]string{
		{"Standard_HB120rs_v3", "hb120rs_v3"},
		{"Standard_HB120rs_v2", "hb120rs_v2"},
		{"Standard_HC44rs", "hc44rs"},
		{"Standard_D32s_v5", "d32s_v5"},
	}
	inputs := []string{"atoms=864M", "atoms=4B", "mesh=40 16 16", "mesh=80 32 32"}
	rng := rand.New(rand.NewSource(11))
	store := dataset.NewStore()
	for i := 0; i < n; i++ {
		sku := skus[i%len(skus)]
		store.Add(dataset.Point{
			ScenarioID:  scenarioName(i),
			AppName:     apps[i%len(apps)],
			SKU:         sku[0],
			SKUAlias:    sku[1],
			NNodes:      1 << (i % 5),
			PPN:         100,
			InputDesc:   inputs[i%len(inputs)],
			ExecTimeSec: rng.Float64()*1000 + 1,
			CostUSD:     rng.Float64() * 10,
		})
	}
	return store
}

var queryBenchFilters = []dataset.Filter{
	{AppName: "lammps"},
	{AppName: "openfoam", SKU: "hb120rs_v3"},
	{AppName: "wrf", InputDesc: "mesh=40 16 16"},
	{SKU: "Standard_HC44rs", MinNodes: 2, MaxNodes: 8},
}

// appendPoint is the datapoint a background collector drips into the store
// while readers query, forcing generation bumps and cache rebuilds.
func appendPoint(i int) dataset.Point {
	return dataset.Point{
		ScenarioID: "live" + scenarioName(i), AppName: "lammps",
		SKU: "Standard_HB120rs_v3", SKUAlias: "hb120rs_v3",
		NNodes: 1 + i%16, PPN: 100, InputDesc: "atoms=864M",
		ExecTimeSec: float64(i%997) + 1, CostUSD: float64(i%89) + 0.1,
	}
}

// BenchmarkAdviceQueryThroughput measures the advice serving path on a
// ~10k-point store with 8 parallel readers — the seed full-scan path
// against the indexed+cached query engine — and repeats both while a
// collector goroutine appends concurrently (every append bumps the store
// generation, so the engine must re-derive instead of serving stale
// entries). qps is queries served per second across all readers.
func BenchmarkAdviceQueryThroughput(b *testing.B) {
	const readers = 8

	// Each sub-benchmark builds its own store so the append variants never
	// grow the dataset another variant (or a -count re-run) then measures.
	seedQuery := func(store *dataset.Store) func(i int) error {
		return func(i int) error {
			f := queryBenchFilters[i%len(queryBenchFilters)]
			if pareto.FormatAdviceTable(pareto.Advice(store.SelectScan(f), pareto.ByTime)) == "" {
				return fmt.Errorf("empty advice")
			}
			return nil
		}
	}
	engineQuery := func(store *dataset.Store) func(i int) error {
		eng := queryengine.New(store)
		return func(i int) error {
			f := queryBenchFilters[i%len(queryBenchFilters)]
			if eng.AdviceTable(eng.Snapshot(), f, pareto.ByTime) == "" {
				return fmt.Errorf("empty advice")
			}
			return nil
		}
	}

	run := func(b *testing.B, store *dataset.Store, query func(i int) error) {
		b.ResetTimer()
		start := time.Now()
		var next int64 = -1
		var failed int32
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := atomic.AddInt64(&next, 1)
					if i >= int64(b.N) || atomic.LoadInt32(&failed) != 0 {
						return
					}
					if err := query(int(i)); err != nil {
						atomic.StoreInt32(&failed, 1)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if failed != 0 {
			b.Error("empty advice")
			return
		}
		if sec := time.Since(start).Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "qps")
		}
	}
	withAppends := func(b *testing.B, store *dataset.Store, query func(i int) error) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				store.Add(appendPoint(i))
				time.Sleep(200 * time.Microsecond)
			}
		}()
		run(b, store, query)
		close(stop)
		wg.Wait()
	}

	b.Run("seed-scan", func(b *testing.B) {
		store := queryBenchStore(10000)
		run(b, store, seedQuery(store))
	})
	b.Run("engine", func(b *testing.B) {
		store := queryBenchStore(10000)
		run(b, store, engineQuery(store))
	})
	b.Run("seed-scan-appends", func(b *testing.B) {
		store := queryBenchStore(10000)
		withAppends(b, store, seedQuery(store))
	})
	b.Run("engine-appends", func(b *testing.B) {
		store := queryBenchStore(10000)
		withAppends(b, store, engineQuery(store))
	})
}

// Ablation: the indexed snapshot Select against the scan path it replaced,
// isolated from caching. Tag-only filters have no posting list and fall
// back to scanning the snapshot, so they bound the index's worst case.
func BenchmarkAblationIndexVsScan(b *testing.B) {
	store := queryBenchStore(10000)
	store.Snapshot() // build once; both paths then measure steady state
	cases := []struct {
		name string
		f    dataset.Filter
	}{
		{"selective", dataset.Filter{AppName: "openfoam", SKU: "hb120rs_v3", InputDesc: "atoms=4B"}},
		{"one-app", dataset.Filter{AppName: "lammps"}},
		{"tag-fallback", dataset.Filter{Tags: map[string]string{"run": "r1"}}},
	}
	for _, tc := range cases {
		b.Run("indexed/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = store.Select(tc.f)
			}
		})
		b.Run("scan/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = store.SelectScan(tc.f)
			}
		})
	}
}

// BenchmarkColumnarSelect is the headline number for the columnar snapshot:
// the interned-symbol columnar path (Select, columnar match + posting
// intersection) against the row-struct scan it replaced (SelectScan), on
// the same prebuilt ~10k-point snapshot. The acceptance bar is columnar
// at least 2x the row baseline on uncached filtered selects.
func BenchmarkColumnarSelect(b *testing.B) {
	store := queryBenchStore(10000)
	store.Snapshot() // build columns and postings once up front
	cases := []struct {
		name string
		f    dataset.Filter
	}{
		{"selective", dataset.Filter{AppName: "openfoam", SKU: "hb120rs_v3", InputDesc: "atoms=4B"}},
		{"one-app", dataset.Filter{AppName: "lammps"}},
		{"node-bounds", dataset.Filter{AppName: "lammps", MinNodes: 2, MaxNodes: 8}},
		{"tag-fallback", dataset.Filter{Tags: map[string]string{"run": "r1"}}},
	}
	for _, tc := range cases {
		b.Run("columnar/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = store.Select(tc.f)
			}
		})
		b.Run("rowscan/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = store.SelectScan(tc.f)
			}
		})
	}
}

// BenchmarkHotFrontServe measures advice cost right after a generation
// roll — the case the hot fronts exist for. Every iteration appends one
// point, invalidating the engine's per-generation memo and rolling the
// snapshot's delta, and then asks for the front of one single-field
// filter. "precomputed" serves through Engine.Advice, which merges the
// base's memoized front positions for that filter (one slot per field and
// symbol, kept across rolls until the delta folds) with the new delta's
// front and copies only the survivors; "recompute" is a fresh Select copy
// plus an on-demand Pareto sweep.
func BenchmarkHotFrontServe(b *testing.B) {
	filters := []dataset.Filter{
		{},
		{AppName: "lammps"},
		{SKU: "hb120rs_v3"},
		{InputDesc: "atoms=4B"},
	}
	b.Run("precomputed", func(b *testing.B) {
		store := queryBenchStore(10000)
		eng := queryengine.New(store)
		store.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.Add(appendPoint(i))
			if len(eng.Advice(eng.Snapshot(), filters[i%len(filters)], pareto.ByTime)) == 0 {
				b.Fatal("empty advice")
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		store := queryBenchStore(10000)
		store.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.Add(appendPoint(i))
			if len(pareto.Advice(store.Select(filters[i%len(filters)]), pareto.ByTime)) == 0 {
				b.Fatal("empty advice")
			}
		}
	})
}

//
// Extension: adaptive budgeted collection — front recall per dollar.
//

func BenchmarkAdaptiveBudget(b *testing.B) {
	fullStore, fullReport := fullSweepFor(lammpsSweepConfig)
	for _, budget := range []float64{10, 20, 30, 60} {
		b.Run("usd_"+strconv.FormatFloat(budget, 'f', 0, 64), func(b *testing.B) {
			cfg, err := config.Parse([]byte(lammpsSweepConfig))
			if err != nil {
				b.Fatal(err)
			}
			var recall, spent float64
			var completed int
			for i := 0; i < b.N; i++ {
				adv := core.New(cfg.Subscription)
				dep, err := adv.DeployCreate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				report, err := adv.CollectAdaptive(dep.Name, cfg, budget, core.CollectOptions{})
				if err != nil {
					b.Fatal(err)
				}
				recall = pareto.Recall(fullStore.Select(dataset.Filter{}), adv.Store.Select(dataset.Filter{}))
				spent = report.CollectionCostUSD
				completed = report.Completed
			}
			_ = fullReport
			b.ReportMetric(recall*100, "front_recall_pct")
			b.ReportMetric(spent, "spent_usd")
			b.ReportMetric(float64(completed), "scenarios_run")
		})
	}
}

// predictBenchStore builds an Amdahl-shaped multi-app/multi-SKU dataset
// whose groups pass the predictor's fit-quality gate, so the benchmark
// exercises the full fit + synthesize + merge path.
func predictBenchStore() *dataset.Store {
	apps := []string{"lammps", "openfoam", "wrf", "gromacs"}
	skus := [][2]string{
		{"Standard_HB120rs_v3", "hb120rs_v3"},
		{"Standard_HB120rs_v2", "hb120rs_v2"},
		{"Standard_HC44rs", "hc44rs"},
		{"Standard_F64s_v2", "f64s_v2"},
	}
	inputs := []string{"atoms=864M", "atoms=4B"}
	store := dataset.NewStore()
	id := 0
	for ai, app := range apps {
		for si, sku := range skus {
			for ii, input := range inputs {
				t1 := 400 + float64(200*ai+60*si+30*ii)
				serial := 0.03 + 0.01*float64(si)
				for _, n := range []int{1, 2, 4, 8, 16} {
					sec := t1 * (serial + (1-serial)/float64(n))
					store.Add(dataset.Point{
						ScenarioID:  "pb" + strconv.Itoa(id),
						AppName:     app,
						SKU:         sku[0],
						SKUAlias:    sku[1],
						NNodes:      n,
						PPN:         100,
						InputDesc:   input,
						ExecTimeSec: sec,
						CostUSD:     float64(n) * sec * 3.6 / 3600,
					})
					id++
				}
			}
		}
	}
	return store
}

// BenchmarkPredictedAdviceThroughput measures serving merged
// measured+predicted advice: the uncached fit+synthesize+merge baseline
// against the query-engine cached path (8 readers, per-filter keys) — the
// latency a GUI /predict page actually pays.
func BenchmarkPredictedAdviceThroughput(b *testing.B) {
	const readers = 8
	cfg := predictor.Config{
		Prices: pricing.Default(),
		Region: "southcentralus",
		Grid:   []int{1, 2, 4, 8, 16, 32, 64},
	}
	filters := []dataset.Filter{
		{},
		{AppName: "lammps"},
		{AppName: "openfoam"},
		{AppName: "wrf", SKU: "hc44rs"},
		{AppName: "gromacs", InputDesc: "atoms=4B"},
	}

	b.Run("direct", func(b *testing.B) {
		store := predictBenchStore()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := filters[i%len(filters)]
			rows := predictor.Advice(store.Select(f), cfg, pareto.ByTime)
			if len(rows) == 0 {
				b.Fatal("empty predicted advice")
			}
		}
	})

	b.Run("engine", func(b *testing.B) {
		store := predictBenchStore()
		eng := queryengine.New(store)
		b.ResetTimer()
		start := time.Now()
		var next int64 = -1
		var failed int32
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := atomic.AddInt64(&next, 1)
					if i >= int64(b.N) || atomic.LoadInt32(&failed) != 0 {
						return
					}
					f := filters[int(i)%len(filters)]
					// The table always carries a header; require actual
					// predicted content so a gate regression fails the bench.
					if !strings.Contains(eng.PredictedAdviceTable(eng.Snapshot(), f, pareto.ByTime, cfg), "predicted/") {
						atomic.StoreInt32(&failed, 1)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if failed != 0 {
			b.Fatal("empty predicted advice")
		}
		if sec := time.Since(start).Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "qps")
		}
	})
}

//
// Storage engine benchmarks
//

// storageBenchPoint fabricates one synthetic datapoint for the storage
// benchmarks, varied enough that frames differ in size and sort key.
func storageBenchPoint(i int) dataset.Point {
	skus := []string{"Standard_HB120rs_v3", "Standard_HB120rs_v2", "Standard_HC44rs"}
	aliases := []string{"hb120rs_v3", "hb120rs_v2", "hc44rs"}
	return dataset.Point{
		ScenarioID:  fmt.Sprintf("lammps-%s-n%02d-%08x", aliases[i%3], 1+i%16, i),
		AppName:     "lammps",
		SKU:         skus[i%3],
		SKUAlias:    aliases[i%3],
		NNodes:      1 + i%16,
		PPN:         120,
		InputDesc:   fmt.Sprintf("BOXFACTOR=%d", 10+i%4),
		ExecTimeSec: 100 / float64(1+i%16),
		CostUSD:     0.5 + float64(i%7)/10,
		Metrics:     map[string]string{"APPEXECTIME": strconv.Itoa(i)},
		CollectedAt: float64(i),
	}
}

// BenchmarkStorageAppendThroughput measures the durable append path: how
// fast collected points land in the segment store with batched fsyncs.
func BenchmarkStorageAppendThroughput(b *testing.B) {
	b.Run("segment", func(b *testing.B) {
		be, err := storage.OpenSegments(filepath.Join(b.TempDir(), "data.seg"), nil)
		if err != nil {
			b.Fatal(err)
		}
		defer be.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := be.Append(storageBenchPoint(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := be.Sync(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}

// BenchmarkStorageLoad measures opening a persisted dataset: the segment
// log replay, and the compacted segment snapshot (served over its
// persisted columns, with no re-sort).
func BenchmarkStorageLoad(b *testing.B) {
	const npoints = 5000
	dir := b.TempDir()

	jsonlPath := filepath.Join(dir, "data.jsonl")
	segPath := filepath.Join(dir, "data.seg")
	segCompacted := filepath.Join(dir, "compacted.seg")
	seed := dataset.NewStore()
	for i := 0; i < npoints; i++ {
		seed.Add(storageBenchPoint(i))
	}
	if err := seed.SaveFile(jsonlPath); err != nil {
		b.Fatal(err)
	}
	if _, _, err := storage.Convert(jsonlPath, segPath); err != nil {
		b.Fatal(err)
	}
	// Convert compacts; re-append half the points so segPath exercises the
	// mixed snapshot+log replay path while segCompacted stays pure.
	if _, _, err := storage.Convert(jsonlPath, segCompacted); err != nil {
		b.Fatal(err)
	}
	sb, err := storage.OpenSegments(segPath, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < npoints/2; i++ {
		if err := sb.Append(storageBenchPoint(npoints + i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := sb.Close(); err != nil {
		b.Fatal(err)
	}

	cases := []struct {
		name string
		path string
	}{
		{"segment-log", segPath},
		{"segment-compacted", segCompacted},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			loaded := 0
			for i := 0; i < b.N; i++ {
				st, be, err := storage.Open(c.path)
				if err != nil {
					b.Fatal(err)
				}
				loaded = st.Len()
				// Touch the query path so the loaded snapshot's reuse counts.
				if got := len(st.Select(dataset.Filter{AppName: "lammps"})); got == 0 {
					b.Fatal("empty load")
				}
				be.Close()
			}
			b.ReportMetric(float64(b.N*loaded)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkAPIServeThroughput measures the JSON serving path of the
// versioned API over a ~10k-point store with 8 parallel readers: full
// /api/v1/advice responses against the query engine they wrap (the JSON
// encode is the only added work, everything else is a cache hit), and ETag
// revalidation hits, which skip parsing and computation entirely and
// answer 304 with an empty body at ~zero allocations.
func BenchmarkAPIServeThroughput(b *testing.B) {
	const readers = 8

	newAPI := func() (*http.ServeMux, string) {
		adv := core.New("api-bench")
		adv.SetStore(queryBenchStore(10000))
		mux := apipkg.New(service.New(adv)).Mux()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/advice", nil))
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") == "" {
			b.Fatalf("priming request = %d", rec.Code)
		}
		return mux, rec.Header().Get("ETag")
	}

	apiPaths := []string{
		"/api/v1/advice",
		"/api/v1/advice?app=lammps",
		"/api/v1/advice?app=openfoam&sku=hb120rs_v3",
		"/api/v1/advice?sort=cost",
	}

	// run drives the mux from 8 readers; each reader reuses one request and
	// one discard writer, so the measurement is the serving path, not test
	// scaffolding. want is the status every response must carry.
	run := func(b *testing.B, mux *http.ServeMux, path string, ifNoneMatch string, want int, rotate bool) {
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		var next int64 = -1
		var failed int32
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reqs := make([]*http.Request, len(apiPaths))
				for i, p := range apiPaths {
					reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
					if ifNoneMatch != "" {
						reqs[i].Header.Set("If-None-Match", ifNoneMatch)
					}
				}
				var fixed *http.Request
				if !rotate {
					fixed = httptest.NewRequest(http.MethodGet, path, nil)
					if ifNoneMatch != "" {
						fixed.Header.Set("If-None-Match", ifNoneMatch)
					}
				}
				w := &discardResponseWriter{h: make(http.Header)}
				for {
					i := atomic.AddInt64(&next, 1)
					if i >= int64(b.N) || atomic.LoadInt32(&failed) != 0 {
						return
					}
					req := fixed
					if rotate {
						req = reqs[int(i)%len(reqs)]
					}
					w.code = 0
					w.n = 0
					mux.ServeHTTP(w, req)
					if w.code != want {
						atomic.StoreInt32(&failed, 1)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if failed != 0 {
			b.Fatalf("response status != %d", want)
		}
		if sec := time.Since(start).Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "qps")
		}
	}

	b.Run("json", func(b *testing.B) {
		mux, _ := newAPI()
		run(b, mux, "", "", http.StatusOK, true)
	})
	b.Run("revalidate-304", func(b *testing.B) {
		mux, tag := newAPI()
		run(b, mux, "/api/v1/advice", tag, http.StatusNotModified, false)
	})
	b.Run("engine-direct", func(b *testing.B) {
		// The reference ceiling: the same queries straight into the engine,
		// no HTTP or JSON. The json variant should be the same order of
		// magnitude; revalidate-304 should beat even this.
		adv := core.New("api-bench")
		adv.SetStore(queryBenchStore(10000))
		eng := adv.Engine()
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		var next int64 = -1
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := atomic.AddInt64(&next, 1)
					if i >= int64(b.N) {
						return
					}
					f := queryBenchFilters[int(i)%len(queryBenchFilters)]
					if eng.AdviceTable(eng.Snapshot(), f, pareto.ByTime) == "" {
						panic("empty advice")
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if sec := time.Since(start).Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "qps")
		}
	})
}

// discardResponseWriter is a reusable response sink for the API benchmark.
type discardResponseWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}
