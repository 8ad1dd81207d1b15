// Package core wires the HPCAdvisor pipeline together: configuration ->
// deployment -> scenario generation -> data collection -> plots and advice.
// It is the programmatic equivalent of the paper's Figure 1 and the engine
// behind the CLI, the GUI, and the public hpcadvisor package.
//
// The back-end (cloud control plane + batch orchestrator) is the simulated
// substrate from internal/cloudsim and internal/batchsim; as the paper notes
// for its Azure Batch back-end, "this back-end can be replaced" — all
// interaction goes through those two packages' narrow surfaces.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hpcadvisor/internal/appmodel"
	"hpcadvisor/internal/batchsim"
	"hpcadvisor/internal/catalog"
	"hpcadvisor/internal/cloudsim"
	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/deploy"
	"hpcadvisor/internal/fsatomic"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/queryengine"
	"hpcadvisor/internal/recipes"
	"hpcadvisor/internal/sampler"
	"hpcadvisor/internal/scenario"
	"hpcadvisor/internal/storage"
	"hpcadvisor/internal/vclock"
)

// Advisor is the top-level façade over the whole pipeline.
type Advisor struct {
	Clock    *vclock.Clock
	Cloud    *cloudsim.Cloud
	Catalog  *catalog.Catalog
	Prices   *pricing.PriceBook
	Apps     *appmodel.Registry
	Deployer *deploy.Manager
	Store    *dataset.Store

	// Collection accumulates resilience counters (attempts by failure
	// class, retries, breaker state, resume accounting) across every
	// collection run on this advisor; the API exposes them on /metrics.
	Collection *monitor.CollectionStats

	// Backend is the segment store the Store writes through when the
	// advisor was opened over a persistent dataset (OpenStore); nil for a
	// purely in-memory advisor.
	Backend *storage.SegmentStore

	// mu guards the registry maps below and — held for the duration of a
	// collection — the task structs the collector mutates, so concurrent
	// readers (the API's /scenarios, the GUI's deployment pages) can never
	// race a live collect. Dataset serving does not touch the registry and
	// never blocks on it.
	mu          sync.RWMutex
	deployments map[string]*deploy.Deployment // guarded-by: mu
	services    map[string]*batchsim.Service  // guarded-by: mu
	lists       map[string]*scenario.List     // guarded-by: mu

	// engMu guards the lazily (re)bound query engine; see Engine.
	engMu    sync.Mutex
	eng      *queryengine.Engine // guarded-by: engMu
	engStore *dataset.Store      // guarded-by: engMu
}

// New creates an advisor bound to one cloud subscription, with the default
// catalog, prices, and application registry.
func New(subscriptionID string) *Advisor {
	clock := vclock.New()
	cat := catalog.Default()
	cloud := cloudsim.New(clock, cat, subscriptionID)
	return &Advisor{
		Clock:       clock,
		Cloud:       cloud,
		Catalog:     cat,
		Prices:      pricing.Default(),
		Apps:        appmodel.NewRegistry(),
		Deployer:    deploy.NewManager(cloud),
		Store:       dataset.NewStore(),
		Collection:  monitor.NewCollectionStats(),
		deployments: make(map[string]*deploy.Deployment),
		services:    make(map[string]*batchsim.Service),
		lists:       make(map[string]*scenario.List),
	}
}

// Engine returns the query engine serving advice and plot requests over
// the advisor's dataset. It is bound lazily and rebound whenever the Store
// field was swapped (the CLI does this when rehydrating state), so cached
// results can never leak across datasets. The engine is safe for concurrent
// use — the GUI serves every read request through it.
func (a *Advisor) Engine() *queryengine.Engine {
	a.engMu.Lock()
	defer a.engMu.Unlock()
	if a.eng == nil || a.engStore != a.Store {
		a.eng = queryengine.New(a.Store)
		a.engStore = a.Store
	}
	return a.eng
}

// SetStore replaces the advisor's dataset; subsequent queries serve from
// the new store through a fresh query engine.
func (a *Advisor) SetStore(s *dataset.Store) {
	a.engMu.Lock()
	defer a.engMu.Unlock()
	a.Store = s
	a.eng = queryengine.New(s)
	a.engStore = s
}

// OpenStore loads the segment store at path (created on the first append
// if missing) and attaches it, so every point a collection appends is
// written through durably as it lands. A JSON Lines dataset is not a store;
// import it with storage.Convert first. Close with CloseStore when done.
func (a *Advisor) OpenStore(path string) error {
	st, b, err := storage.Open(path)
	if err != nil {
		return err
	}
	// Prewarm the read path: force the first snapshot build (canonical
	// sort, inverted indexes, columns, hot Pareto fronts) at open time, so
	// the one-off cost lands here instead of on the first advice request.
	// When the backend served a v2 snapshot segment over its persisted
	// columns this is a no-op — that snapshot was built at load.
	st.Snapshot()
	a.SetStore(st)
	a.Backend = b
	return nil
}

// CloseStore flushes and releases the attached storage backend. The store
// itself stays usable in memory (appends just no longer persist).
func (a *Advisor) CloseStore() error {
	if a.Backend == nil {
		return nil
	}
	err := a.Store.Flush()
	a.Store.Attach(nil)
	if cerr := a.Backend.Close(); err == nil {
		err = cerr
	}
	a.Backend = nil
	return err
}

// DeployCreate provisions a new environment from the configuration
// (Table II: "deploy create").
func (a *Advisor) DeployCreate(cfg *config.Config) (*deploy.Deployment, error) {
	d, err := a.Deployer.Create(cfg.DeploySpec())
	if err != nil {
		return nil, err
	}
	a.adopt(d)
	return d, nil
}

// adopt registers a deployment and its batch service.
func (a *Advisor) adopt(d *deploy.Deployment) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.deployments[d.Name] = d
	a.services[d.Name] = batchsim.New(a.Clock, a.Cloud, d.SubscriptionID, d.Name)
}

// RestoreDeployment re-registers a previously created deployment (e.g. one
// recorded in a state file by the CLI) by re-provisioning its resources
// under the exact recorded names.
func (a *Advisor) RestoreDeployment(d *deploy.Deployment) error {
	a.mu.RLock()
	_, registered := a.deployments[d.Name]
	a.mu.RUnlock()
	if registered {
		return fmt.Errorf("core: deployment %q already registered", d.Name)
	}
	if _, err := a.Cloud.CreateResourceGroup(d.SubscriptionID, d.Name, d.Region); err != nil {
		return err
	}
	if _, err := a.Cloud.CreateVNet(d.SubscriptionID, d.Name, d.VNet, "10.0.0.0/16"); err != nil {
		return err
	}
	if _, err := a.Cloud.CreateSubnet(d.SubscriptionID, d.Name, d.VNet, d.Subnet, "10.0.0.0/20"); err != nil {
		return err
	}
	if _, err := a.Cloud.CreateStorageAccount(d.SubscriptionID, d.Name, d.StorageAccount); err != nil {
		return err
	}
	if _, err := a.Cloud.CreateBatchAccount(d.SubscriptionID, d.Name, d.BatchAccount, d.StorageAccount); err != nil {
		return err
	}
	a.adopt(d)
	return nil
}

// DeployList lists deployments by resource-group prefix (Table II:
// "deploy list").
func (a *Advisor) DeployList(subscriptionID, prefix string) ([]cloudsim.Inventory, error) {
	return a.Deployer.List(subscriptionID, prefix)
}

// DeployShutdown deletes a deployment and all its resources (Table II:
// "deploy shutdown").
func (a *Advisor) DeployShutdown(subscriptionID, name string) error {
	if err := a.Deployer.Shutdown(subscriptionID, name); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.deployments, name)
	delete(a.services, name)
	delete(a.lists, name)
	return nil
}

// Deployment returns a registered deployment.
func (a *Advisor) Deployment(name string) (*deploy.Deployment, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if d, ok := a.deployments[name]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("core: unknown deployment %q", name)
}

// Deployments lists registered deployment names, sorted.
func (a *Advisor) Deployments() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.deployments))
	for n := range a.deployments {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SamplerByName resolves the smart-sampling strategy names exposed on the
// CLI: "full", "discard", "perffactor", "bottleneck", "combined".
func (a *Advisor) SamplerByName(name, region string) (collector.Planner, error) {
	switch name {
	case "", "full":
		return sampler.Full{}, nil
	case "discard":
		return sampler.AggressiveDiscard{}, nil
	case "perffactor":
		return sampler.PerfFactor{Prices: a.Prices, Region: region}, nil
	case "bottleneck":
		return sampler.BottleneckAware{}, nil
	case "combined":
		c := sampler.Composite{}
		c.Planners = append(c.Planners,
			sampler.AggressiveDiscard{},
			sampler.PerfFactor{Prices: a.Prices, Region: region},
			sampler.BottleneckAware{},
		)
		return c, nil
	}
	return nil, fmt.Errorf("core: unknown sampler %q (want full, discard, perffactor, bottleneck, or combined)", name)
}

// CollectOptions tune a collection run.
type CollectOptions struct {
	// Sampler is a strategy name for SamplerByName; empty means full sweep.
	Sampler string
	// Planner overrides Sampler with an explicit strategy.
	Planner collector.Planner
	// DeletePoolAfter deletes pools instead of resizing to zero.
	DeletePoolAfter bool
	// MaxAttempts retries failing scenarios.
	MaxAttempts int
	// Progress observes task state changes.
	Progress func(t *scenario.Task)
	// UseSpot collects on spot capacity (cheaper, preemptible); pair with
	// MaxAttempts > 1 so preempted scenarios are retried.
	UseSpot bool
	// MaxParallelPools runs up to this many VM-type pool lanes concurrently
	// during collection (the CLI's --parallel-pools). Zero or one keeps the
	// paper's sequential walk; higher values cut time-to-advice on
	// multi-SKU sweeps while producing an identical dataset and report.
	MaxParallelPools int
	// Journal, when set, makes the sweep crash-resumable: every attempt and
	// outcome is recorded durably as the run progresses.
	Journal *collector.Journal
	// Resume replays a previously journaled sweep, re-executing only the
	// work that never became durable. The journal's sweep parameters must
	// match this run's (spot, attempts).
	Resume *collector.Replay
	// Interrupt stops the run cleanly at the next task boundary when it
	// becomes readable (e.g. a canceled context's Done channel).
	Interrupt <-chan struct{}
	// Backoff and Breaker tune the failure taxonomy's retry delays and the
	// per-SKU circuit breaker; zero values take the defaults.
	Backoff collector.BackoffPolicy
	Breaker collector.BreakerPolicy
}

// Collect generates (or resumes) the scenario list for the configuration
// and runs the data-collection phase on the named deployment (Table II:
// "collect").
func (a *Advisor) Collect(deploymentName string, cfg *config.Config, opts CollectOptions) (*collector.Report, error) {
	return a.withCollection(deploymentName, cfg, func(col *collector.Collector, list *scenario.List) (*collector.Report, error) {
		planner := opts.Planner
		if planner == nil {
			var err error
			planner, err = a.SamplerByName(opts.Sampler, col.Region)
			if err != nil {
				return nil, err
			}
		}
		if opts.Resume != nil && opts.Resume.Begun {
			// Sweep parameters shape the replay (retry budgets, spot draws):
			// resuming under different ones would not reconverge on the
			// uninterrupted run's dataset.
			if opts.Resume.Spot != opts.UseSpot {
				return nil, fmt.Errorf("core: resume: journal was collected with spot=%v, this run has spot=%v", opts.Resume.Spot, opts.UseSpot)
			}
			attempts := opts.MaxAttempts
			if attempts < 1 {
				attempts = 1
			}
			if opts.Resume.MaxAttempts != attempts {
				return nil, fmt.Errorf("core: resume: journal was collected with attempts=%d, this run has attempts=%d", opts.Resume.MaxAttempts, attempts)
			}
		}
		opts.Resume.Apply(list)
		return col.Run(list, a.Store, collector.Options{
			DeletePoolAfter:  opts.DeletePoolAfter,
			MaxAttempts:      opts.MaxAttempts,
			Planner:          planner,
			Progress:         opts.Progress,
			UseSpot:          opts.UseSpot,
			MaxParallelPools: opts.MaxParallelPools,
			Journal:          opts.Journal,
			Resume:           opts.Resume,
			Interrupt:        opts.Interrupt,
			Backoff:          opts.Backoff,
			Breaker:          opts.Breaker,
			Stats:            a.Collection,
		})
	})
}

// withCollection runs one collection on the named deployment: it resolves
// the deployment, generates its scenario list on first use (or resets tasks
// an interrupted run left running), and calls run with a collector on the
// deployment's service. The write lock is held across the whole run: the
// collector mutates the task list's statuses throughout, and concurrent
// registry readers (ScenarioTasks, the deployment pages) must observe
// either the state before the collection or after it, never a torn middle.
// Advice and plot serving reads dataset snapshots, not the registry, so it
// keeps flowing during a collect.
func (a *Advisor) withCollection(deploymentName string, cfg *config.Config, run func(*collector.Collector, *scenario.List) (*collector.Report, error)) (*collector.Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.deployments[deploymentName]
	if !ok {
		return nil, fmt.Errorf("core: unknown deployment %q", deploymentName)
	}
	list := a.lists[deploymentName]
	if list == nil {
		var err error
		list, err = scenario.Generate(cfg.ScenarioSpec(), a.Catalog)
		if err != nil {
			return nil, err
		}
		a.lists[deploymentName] = list
	} else {
		list.ResetRunning()
	}
	return run(collector.New(a.services[deploymentName], a.Apps, a.Prices, a.Catalog, d.Region, d.Name), list)
}

// TaskList returns the scenario list of a deployment (nil if no collection
// was started). The returned list is the live one the collector mutates;
// callers reading it concurrently with a possible collection should use
// ScenarioTasks instead.
func (a *Advisor) TaskList(deploymentName string) *scenario.List {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.lists[deploymentName]
}

// ScenarioTasks returns a copy of the deployment's task states taken under
// the registry lock — safe to render or marshal while a concurrent
// collection mutates the live tasks (the lock serializes against Collect).
// Nil means no collection was started.
func (a *Advisor) ScenarioTasks(deploymentName string) []scenario.Task {
	a.mu.RLock()
	defer a.mu.RUnlock()
	list := a.lists[deploymentName]
	if list == nil {
		return nil
	}
	out := make([]scenario.Task, len(list.Tasks))
	for i, t := range list.Tasks {
		out[i] = *t
	}
	return out
}

// SetTaskList installs a previously saved scenario list (resume). A nil
// list clears the deployment's list, so the next Collect regenerates it.
func (a *Advisor) SetTaskList(deploymentName string, list *scenario.List) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if list == nil {
		delete(a.lists, deploymentName)
		return
	}
	a.lists[deploymentName] = list
}

// PlotSet is the full set of plots the tool generates for a filter
// (Section III-D's four plots plus the Figure 6 Pareto scatter).
type PlotSet = plot.Set

// Plots computes the plot set over the dataset (Table II: "plot"), served
// and memoized by the query engine.
func (a *Advisor) Plots(f dataset.Filter) PlotSet {
	eng := a.Engine()
	return eng.PlotSet(eng.Snapshot(), f)
}

// WritePlotsSVG renders the plot set into dir and returns the file paths.
// When using the CLI, "the plots are generated in the current folder"
// (paper Section III-D). All five files are rendered from one snapshot, so
// a set written while a collection appends never mixes generations.
func (a *Advisor) WritePlotsSVG(dir string, f dataset.Filter) ([]string, error) {
	eng := a.Engine()
	sn := eng.Snapshot()
	return writeSVGs(dir, func(name string) ([]byte, error) { return eng.SVG(sn, name, f) })
}

// WritePredictedPlotsSVG renders the overlaid plot set into dir from one
// snapshot and returns the file paths, served from the engine's
// predicted-SVG cache.
func (a *Advisor) WritePredictedPlotsSVG(dir string, f dataset.Filter, cfg predictor.Config) ([]string, error) {
	eng := a.Engine()
	sn := eng.Snapshot()
	return writeSVGs(dir, func(name string) ([]byte, error) { return eng.PredictedSVG(sn, name, f, cfg) })
}

// writeSVGs renders every plot of the set through render and writes one
// .svg file per canonical plot name into dir. Writes are atomic
// (fsatomic): a crash or failed render mid-set leaves each output either
// absent or complete from a previous run, never torn, so a dashboard
// re-reading the directory cannot pick up half an SVG.
func writeSVGs(dir string, render func(name string) ([]byte, error)) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, name := range plot.SetNames {
		data, err := render(name)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".svg")
		if err := fsatomic.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Advice computes the Pareto front over the filtered dataset, ordered by
// execution time or cost (Table II: "advice"; Section III-E), served and
// memoized by the query engine.
func (a *Advisor) Advice(f dataset.Filter, order pareto.SortOrder) []dataset.Point {
	eng := a.Engine()
	return eng.Advice(eng.Snapshot(), f, order)
}

// AdviceTable renders the advice exactly as the paper's Listings 3-4.
func (a *Advisor) AdviceTable(f dataset.Filter, order pareto.SortOrder) string {
	eng := a.Engine()
	return eng.AdviceTable(eng.Snapshot(), f, order)
}

// PredictorConfig builds the predictor configuration for this advisor's
// price book: region prices the synthesized points, grid sets the node
// counts predicted at (nil derives the default doubling grid from the
// measured data).
func (a *Advisor) PredictorConfig(region string, grid []int) predictor.Config {
	return predictor.Config{Prices: a.Prices, Region: region, Grid: grid}
}

// PredictedAdvice returns the merged measured+predicted Pareto front: the
// paper's Section III-F "minimal or no executions" advice. Predicted rows
// are marked (Row.Predicted, "pred-" scenario IDs) and synthesized only at
// (SKU, node count) holes, so no predicted row ever replaces or contradicts
// a measurement of the same scenario; on the merged front a prediction can
// still out-compete a measured row of a different scenario — that is the
// point — and stays visibly marked when it does. Served and memoized by the
// query engine.
func (a *Advisor) PredictedAdvice(f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) []predictor.Row {
	eng := a.Engine()
	return eng.PredictedAdvice(eng.Snapshot(), f, order, cfg)
}

// PredictedAdviceTable renders the merged advice with Source markings.
func (a *Advisor) PredictedAdviceTable(f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) string {
	eng := a.Engine()
	return eng.PredictedAdviceTable(eng.Snapshot(), f, order, cfg)
}

// PredictedPlots computes the plot set with predicted overlays (fitted
// curves and interval bands) on the exectime and cost plots.
func (a *Advisor) PredictedPlots(f dataset.Filter, cfg predictor.Config) PlotSet {
	eng := a.Engine()
	return eng.PredictedPlotSet(eng.Snapshot(), f, cfg)
}

// Backtest reports the predictor's leave-one-out accuracy per model family
// over the filtered dataset.
func (a *Advisor) Backtest(f dataset.Filter, cfg predictor.Config) predictor.BacktestReport {
	eng := a.Engine()
	return eng.Backtest(eng.Snapshot(), f, cfg)
}

// RepriceAdvice recomputes scenario costs under different pricing terms —
// another region, or spot instead of on-demand — without re-running
// anything (cost is nodes x time x hourly/3600, and times are already
// measured), then returns the resulting Pareto front. This answers the
// what-if questions a user has after one collection: "what would the advice
// be in westeurope?", "what if I run production on spot?".
func (a *Advisor) RepriceAdvice(f dataset.Filter, order pareto.SortOrder, region string, spot bool) ([]dataset.Point, error) {
	pts := a.Engine().Snapshot().Select(f)
	// A sweep has few distinct VM types but many points per type: look each
	// SKU's hourly rate up once, not once per point.
	rates := make(map[string]float64)
	repriced := make([]dataset.Point, 0, len(pts))
	for _, p := range pts {
		hourly, ok := rates[p.SKU]
		if !ok {
			var err error
			if spot {
				hourly, err = a.Prices.HourlySpot(region, p.SKU)
			} else {
				hourly, err = a.Prices.Hourly(region, p.SKU)
			}
			if err != nil {
				return nil, err
			}
			rates[p.SKU] = hourly
		}
		p.CostUSD = pricing.CostAt(hourly, p.NNodes, p.ExecTimeSec)
		repriced = append(repriced, p)
	}
	return pareto.Advice(repriced, order), nil
}

// AdviceRecipes renders runnable artifacts for every advice row — a Slurm
// job script plus a cluster recipe — the paper's "comprehensive advice"
// extension (Section I: "recipes to run jobs (e.g., Slurm scripts) or
// computing environment creation").
func (a *Advisor) AdviceRecipes(f dataset.Filter, order pareto.SortOrder, region string) (string, error) {
	return a.RecipesFor(a.Advice(f, order), region)
}

// RecipesFor renders the recipe bundle for explicit advice rows, so callers
// serving a different front (e.g. the merged predicted one) emit recipes
// for exactly the rows they displayed.
func (a *Advisor) RecipesFor(rows []dataset.Point, region string) (string, error) {
	var b strings.Builder
	for i, row := range rows {
		sku, err := a.Catalog.Lookup(row.SKU)
		if err != nil {
			return "", err
		}
		hourly, err := a.Prices.Hourly(region, row.SKU)
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(recipes.Bundle(row, sku, hourly))
	}
	return b.String(), nil
}
