// Package collector implements the paper's data-collection phase
// (Section III-C, Algorithm 1): it walks the scenario task list, creates one
// pool per VM type, runs a setup task when the pool is (re)created, resizes
// the pool to each scenario's node count, executes the compute task, scrapes
// the reported variables, and stores a datapoint. When the VM type changes,
// the previous pool is resized to zero or deleted according to user
// preference.
//
// The per-task loop is written once (walk, in engine.go) and runs over one
// batch service at a time. By default (Options.MaxParallelPools <= 1) it
// walks the whole list on the deployment's shared virtual clock: the
// paper's sequential loop, one pool and one scenario at a time. With
// MaxParallelPools > 1 the scenario list is partitioned per VM type into
// independent pool lanes, and up to that many lanes walk their partitions
// concurrently, each on a private simulation substrate. Both modes produce
// byte-identical datasets and identical accounting for the same scenario
// list — parallelism reorders execution, not outcomes.
//
// The walk is also a durable, failure-aware state machine. Every error is
// classified by the failure taxonomy (taxonomy.go) with a per-class retry
// decision; capacity failures feed a per-SKU circuit breaker; with a
// Journal attached (journal.go) every attempt and outcome is recorded
// durably, Options.Interrupt winds the run down cleanly, and a later run
// with Options.Resume ghost-replays the journaled prefix through the
// simulation — recomputing clocks, attempts, and IDs identically without
// re-collecting durable datapoints — so the resumed dataset is
// byte-identical to an uninterrupted run.
package collector

import (
	"errors"
	"fmt"
	"sort"

	"hpcadvisor/internal/appmodel"
	"hpcadvisor/internal/batchsim"
	"hpcadvisor/internal/catalog"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/runner"
	"hpcadvisor/internal/scenario"
)

// ErrInterrupted reports that Options.Interrupt fired: the run wound down
// at a task boundary, released its pools, and sealed the journal. The
// report describes what happened before the stop; `collect -resume`
// continues the sweep.
var ErrInterrupted = errors.New("collector: interrupted")

// Planner decides whether each pending scenario should execute; the smart
// sampler (Section III-F) plugs in here. A nil Planner runs everything.
type Planner interface {
	// Decide inspects the task and the data collected so far. Returning
	// run=false skips the scenario, recording the reason. In sequential
	// mode store is the collection's target store; in concurrent mode it is
	// the store of the lane's own points, so cross-VM-type strategies (e.g.
	// aggressive discarding) only see evidence from their own lane — use
	// sequential collection when a strategy needs to compare VM types.
	Decide(t *scenario.Task, store *dataset.Store) (run bool, reason string)
}

// Options tune a collection run.
type Options struct {
	// DeletePoolAfter deletes pools when the VM type changes; otherwise
	// pools are resized to zero (the paper offers both).
	DeletePoolAfter bool
	// MaxAttempts is how many times a failing scenario is tried (>= 1).
	// Only retryable failure classes (transient, capacity, preemption)
	// consume the extra attempts; application failures never retry.
	MaxAttempts int
	// Planner optionally prunes scenarios (smart sampling).
	Planner Planner
	// Progress, when set, is invoked after every task state change. With
	// MaxParallelPools > 1 it is still called serially (an internal mutex
	// guards it), but calls from different lanes interleave in real-time
	// order, which varies run to run.
	Progress func(t *scenario.Task)
	// UseSpot collects on spot (low-priority) capacity: pools are billed at
	// the spot rate but tasks can be preempted; pair with MaxAttempts > 1.
	UseSpot bool
	// MaxParallelPools caps how many VM-type pool lanes collect
	// concurrently. Zero or one preserves the sequential Algorithm 1 walk.
	// Larger values partition the task list per VM type into independent
	// lanes, each simulated on a private virtual clock, and execute up to
	// this many lanes at once on real OS threads. For a fresh collection
	// the resulting dataset is byte-identical to the sequential run and the
	// report totals are equal; only real wall-clock time and the modeled
	// concurrent makespan (Report.ElapsedVirtualSeconds) shrink.
	MaxParallelPools int
	// Journal, when set, records every attempt and terminal outcome
	// durably as the run progresses, making the sweep crash-resumable.
	Journal *Journal
	// Resume replays a prior journal: journaled terminal tasks are
	// ghost-replayed (re-executed through the simulation for identical
	// clocks and IDs, without re-adding datapoints that are already
	// durable) and only the rest collect for real.
	Resume *Replay
	// Interrupt, when it becomes readable (typically a closed channel or a
	// canceled context's Done), stops the run at the next task boundary:
	// pools are released, the journal is sealed, and Run returns
	// ErrInterrupted.
	Interrupt <-chan struct{}
	// Backoff shapes retry delays for transient and capacity failures.
	Backoff BackoffPolicy
	// Breaker tunes the per-SKU circuit breaker on capacity failures.
	Breaker BreakerPolicy
	// Stats, when set, receives resilience counters (attempts by class,
	// retries, breaker transitions, resume accounting).
	Stats *monitor.CollectionStats

	// have marks scenario IDs whose datapoints are already durable in the
	// target store; computed by Run when resuming.
	have map[string]bool
}

// LaneReport is one VM type's share of a collection run. In concurrent mode
// a lane is the unit of parallel execution; in sequential mode the same
// accounting is kept per VM type so the two modes report identically. Lane
// sums equal the report totals by construction.
type LaneReport struct {
	// SKU and SKUAlias identify the lane's VM type.
	SKU      string
	SKUAlias string
	// Completed, Failed, Skipped, and Attempts count this lane's task
	// outcomes, mirroring the top-level report fields.
	Completed int
	Failed    int
	Skipped   int
	// Attempts counts task executions performed by this run's own process.
	// Attempts ghost-replayed from a resumed journal are counted in
	// ResumedAttempts instead, so the two never double-count across
	// process lifetimes: sum(task.Attempts) == Attempts + ResumedAttempts.
	Attempts int
	// Retries counts retry decisions taken by the failure taxonomy
	// (transient/capacity backoffs and spot preemption re-runs).
	Retries int
	// BreakerSkipped counts tasks skipped because the SKU's circuit
	// breaker was open (a subset of Skipped).
	BreakerSkipped int
	// Resumed counts journaled tasks restored on resume without
	// re-collecting their datapoint; Rerun counts journaled tasks that had
	// to re-collect because their datapoint never became durable.
	Resumed int
	Rerun   int
	// ResumedAttempts counts attempts recomputed during ghost replay —
	// work a previous process lifetime already performed.
	ResumedAttempts int
	// NodeSeconds is the billed node time this lane accrued, including
	// boot, setup, and idle time.
	NodeSeconds float64
	// CostUSD prices the lane's node-seconds at the lane SKU's hourly rate.
	CostUSD float64
	// VirtualSeconds is how long the lane occupied its (virtual) timeline.
	VirtualSeconds float64
	// MeanUtil is the mean infrastructure utilization over the lane's
	// successful scenarios; Samples is how many contributed.
	MeanUtil monitor.Sample
	Samples  int
}

// Report summarizes a collection run.
type Report struct {
	// Completed, Failed, and Skipped count scenario outcomes.
	Completed int
	Failed    int
	Skipped   int
	// Attempts counts task executions by this process, including retries
	// (preemptions on spot capacity, transient failures). Attempts
	// replayed from a resumed journal are in ResumedAttempts.
	Attempts int
	// Retries, BreakerSkipped, Resumed, Rerun, and ResumedAttempts sum the
	// corresponding lane counters (see LaneReport).
	Retries         int
	BreakerSkipped  int
	Resumed         int
	Rerun           int
	ResumedAttempts int
	// Interrupted reports that the run stopped early on Options.Interrupt.
	Interrupted bool
	// NodeSecondsBySKU is billed node time including boot and idle.
	NodeSecondsBySKU map[string]float64
	// CollectionCostUSD prices the billed node-seconds: the total cost of
	// obtaining the data (Section III-C, "data collection incurs a cost").
	CollectionCostUSD float64
	// VirtualSeconds is the canonical (sequential-equivalent) virtual
	// duration of the collection: the sum of all lane durations. It is
	// identical whatever MaxParallelPools is, which keeps timestamps and
	// accounting mode-independent.
	VirtualSeconds float64
	// ElapsedVirtualSeconds is the modeled wall-clock of the run: with
	// concurrent lanes it is the makespan of scheduling the lanes onto
	// MaxParallelPools workers, and with sequential collection it equals
	// VirtualSeconds. This is the "time to advice" that concurrency
	// reduces.
	ElapsedVirtualSeconds float64
	// Lanes breaks the run down per VM type, in first-appearance order of
	// the task list. Counter, node-second, cost, and virtual-second sums
	// over lanes equal the top-level fields for a fresh collection.
	Lanes []LaneReport
}

// Collector runs scenario lists against a deployed batch service.
type Collector struct {
	Service    *batchsim.Service
	Apps       *appmodel.Registry
	Prices     *pricing.PriceBook
	Catalog    *catalog.Catalog
	Region     string
	Deployment string
}

// New builds a collector for a deployment.
func New(svc *batchsim.Service, apps *appmodel.Registry, prices *pricing.PriceBook, cat *catalog.Catalog, region, deployment string) *Collector {
	return &Collector{Service: svc, Apps: apps, Prices: prices, Catalog: cat, Region: region, Deployment: deployment}
}

// Run executes Algorithm 1 over the task list, appending datapoints to
// store. It returns a report of what ran and what it cost. With
// Options.MaxParallelPools > 1 the run is delegated to the concurrent lane
// engine; outcomes are identical either way.
func (c *Collector) Run(list *scenario.List, store *dataset.Store, opts Options) (*Report, error) {
	if opts.MaxAttempts < 1 {
		opts.MaxAttempts = 1
	}
	opts.Journal.SetStats(opts.Stats)
	if opts.Journal != nil {
		opts.Journal.append(Record{
			Kind: recBegin, Deployment: c.Deployment, Spot: opts.UseSpot,
			MaxAttempts: opts.MaxAttempts, Parallel: opts.MaxParallelPools,
		})
	}
	opts.have = resumeHave(opts.Resume, store)

	var lanes []*lane
	if opts.MaxParallelPools > 1 {
		lanes = partitionLanes(list, opts.Resume)
	}
	var rep *Report
	var err error
	if len(lanes) > 1 {
		rep, err = c.runConcurrent(lanes, store, opts)
	} else {
		rep, err = c.runSequential(list, store, opts)
	}

	if opts.Journal != nil {
		switch {
		case errors.Is(err, ErrInterrupted):
			opts.Journal.append(Record{Kind: recSeal, Reason: SealInterrupted})
		case err == nil:
			// Everything merged and flushed: upgrade every outcome to
			// durable, then seal. A crash from here on resumes for free.
			opts.Journal.append(Record{Kind: recFlushed})
			opts.Journal.append(Record{Kind: recSeal, Reason: SealComplete})
		}
		// A hard error leaves the journal unsealed on purpose: the sweep
		// is interrupted in fact, and -resume picks it up.
		if jerr := opts.Journal.Err(); jerr != nil && err == nil {
			err = fmt.Errorf("collector: journal: %w", jerr)
		}
	}
	return rep, err
}

// isGhost reports whether a task has a journaled outcome to replay.
func isGhost(resume *Replay, t *scenario.Task) bool {
	if resume == nil {
		return false
	}
	_, ok := resume.Outcomes[t.ID]
	return ok
}

// resumeHave marks the scenario IDs whose datapoints are already durable in
// store and must not be appended again on resume: journaled outcomes whose
// point is present, plus dangling attempts (the process died between the
// point flush and the outcome record).
func resumeHave(resume *Replay, store *dataset.Store) map[string]bool {
	if resume == nil {
		return nil
	}
	present := make(map[string]bool)
	for _, p := range store.All() {
		present[p.ScenarioID] = true
	}
	have := make(map[string]bool)
	for id := range resume.Outcomes {
		if present[id] {
			have[id] = true
		}
	}
	for id := range resume.Dangling {
		if present[id] {
			have[id] = true
		}
	}
	return have
}

// interrupted polls Options.Interrupt without blocking.
func interrupted(opts Options) bool {
	if opts.Interrupt == nil {
		return false
	}
	select {
	case <-opts.Interrupt:
		return true
	default:
		return false
	}
}

// taskRun is the per-task execution context of a walk: the service to run
// on, the lane being accounted, the SKU's breaker, and whether this is a
// ghost replay of a journaled outcome.
type taskRun struct {
	svc      *batchsim.Service
	opts     Options
	lane     *LaneReport
	agg      *monitor.Aggregator
	addPoint func(dataset.Point)
	// flush, when set, is called before journaling an outcome so the
	// outcome can be marked durable; nil (concurrent lanes) journals
	// outcomes as non-durable until the merge's flushed marker.
	flush func() error
	brk   *breakerState
	ghost bool
}

func (r *taskRun) countAttempt() {
	if r.ghost {
		r.lane.ResumedAttempts++
	} else {
		r.lane.Attempts++
	}
}

func (r *taskRun) countRetry(class FailureClass) {
	if r.ghost {
		return
	}
	r.lane.Retries++
	r.opts.Stats.Retry(string(class))
}

// journalStart marks an attempt as in flight before execution, so a crash
// mid-attempt leaves a dangling marker and resume knows a datapoint may
// exist without a covering outcome.
func (r *taskRun) journalStart(task *scenario.Task) {
	if r.opts.Journal == nil || r.ghost {
		return
	}
	r.opts.Journal.append(Record{
		Kind: recAttempt, Task: task.ID, SKU: task.SKU,
		Attempt: task.Attempts, VSec: r.svc.Clock.NowSeconds(),
	})
}

// journalFailedAttempt records a classified attempt failure.
func (r *taskRun) journalFailedAttempt(task *scenario.Task, attempt int, class FailureClass, msg string) {
	if r.opts.Journal == nil || r.ghost {
		return
	}
	r.opts.Journal.append(Record{
		Kind: recAttempt, Task: task.ID, SKU: task.SKU, Attempt: attempt,
		Class: string(class), Error: msg, VSec: r.svc.Clock.NowSeconds(),
	})
}

// journalOutcome records a terminal task state. With a flush hook the
// datapoint (if any) is made durable first and the outcome marked so;
// ghost replays re-journal their outcomes with Resumed set, upgrading
// durability for a possible second crash.
func (r *taskRun) journalOutcome(task *scenario.Task, class FailureClass, reason string) {
	j := r.opts.Journal
	if j == nil {
		return
	}
	durable := false
	if r.flush != nil && r.flush() == nil {
		durable = true
	}
	j.append(Record{
		Kind: recOutcome, Task: task.ID, SKU: task.SKU,
		Status: string(task.Status), Class: string(class), Error: task.Error,
		Tried: task.Attempts, Durable: durable, Resumed: r.ghost,
		Reason: reason, VSec: r.svc.Clock.NowSeconds(),
	})
}

func (r *taskRun) breakerTransition(sku, state string) {
	r.opts.Stats.Breaker(sku, state)
	if r.opts.Journal != nil && !r.ghost {
		r.opts.Journal.append(Record{
			Kind: recBreaker, SKU: sku, Status: state,
			VSec: r.svc.Clock.NowSeconds(),
		})
	}
}

// finishGhost books a completed ghost replay as resumed (its datapoint was
// already durable — nothing re-collected) or rerun (it had to re-collect).
func (r *taskRun) finishGhost(task *scenario.Task, out TaskOutcome) {
	if r.opts.have[task.ID] || out.Durable {
		r.lane.Resumed++
		r.opts.Stats.TaskResumed()
	} else {
		r.lane.Rerun++
		r.opts.Stats.TaskRerun()
	}
}

// restoreSkip restores a journaled skip outcome directly: the original
// skip consumed no simulation time, so the replay must not either.
func restoreSkip(opts Options, task *scenario.Task, lane *LaneReport, out TaskOutcome) {
	task.Status = out.Status
	task.Attempts = out.Attempts
	task.Error = out.Error
	lane.Skipped++
	if out.Class == ClassCapacity {
		lane.BreakerSkipped++
	}
	lane.Resumed++
	opts.Stats.TaskResumed()
	notify(opts, task)
}

// createPool creates (or adopts) the lane pool, retrying transient and
// capacity control-plane failures with backoff. A non-retryable failure is
// a hard error: without a pool the lane cannot proceed at all.
func (c *Collector) createPool(r *taskRun, task *scenario.Task, poolID string) error {
	create := r.svc.CreatePool
	if r.opts.UseSpot {
		create = r.svc.CreateSpotPool
	}
	for attempt := 1; ; attempt++ {
		_, err := create(poolID, task.SKU, runner.SetupSeconds)
		if err == nil || errors.Is(err, batchsim.ErrPoolExists) {
			// A zero-sized pool left by a previous collection on the same
			// deployment is adopted.
			return nil
		}
		class := Classify(err)
		if !r.ghost {
			r.opts.Stats.Attempt(string(class))
		}
		r.journalFailedAttempt(task, attempt, class, err.Error())
		if class.Retryable() && attempt < r.opts.MaxAttempts {
			r.countRetry(class)
			r.svc.Clock.Advance(r.opts.Backoff.delay(task.ID, attempt))
			continue
		}
		return fmt.Errorf("collector: creating pool for %s: %w", task.SKU, err)
	}
}

// resizePool grows the pool to the task's node count, applying the
// taxonomy: transient and capacity failures retry with exponential backoff
// on the lane clock; capacity failures feed the SKU's breaker; quota and
// fatal failures fail the task immediately. Returns ok=false with the task
// marked failed when the size was never reached.
func (c *Collector) resizePool(r *taskRun, task *scenario.Task, poolID string) (bool, error) {
	for attempt := 1; ; attempt++ {
		err := r.svc.Resize(poolID, task.NNodes)
		if err == nil {
			if r.brk.success() {
				// A half-open probe succeeded: the SKU is re-admitted.
				r.breakerTransition(task.SKU, brkClosed)
			}
			return true, nil
		}
		class := Classify(err)
		if !r.ghost {
			r.opts.Stats.Attempt(string(class))
		}
		r.journalFailedAttempt(task, attempt, class, err.Error())
		if class == ClassCapacity {
			if r.brk.failure(r.svc.Clock.Now()) {
				r.breakerTransition(task.SKU, brkOpen)
			}
		}
		retry := class.Retryable() && attempt < r.opts.MaxAttempts &&
			!(class == ClassCapacity && r.brk.state == brkOpen)
		if retry {
			r.countRetry(class)
			r.svc.Clock.Advance(r.opts.Backoff.delay(task.ID, attempt))
			continue
		}
		task.Status = scenario.StatusFailed
		task.Error = err.Error()
		r.lane.Failed++
		r.journalOutcome(task, class, "")
		notify(r.opts, task)
		return false, nil
	}
}

// admitTask consults the SKU's breaker. A closed (or cooled-down, now
// half-open) breaker admits; an open one skips the task with the reason
// journaled, so resume restores the skip instead of re-deciding it.
func (c *Collector) admitTask(r *taskRun, task *scenario.Task) bool {
	if r.brk.admit(r.svc.Clock.Now()) {
		if r.brk.state == brkHalfOpen {
			r.breakerTransition(task.SKU, brkHalfOpen)
		}
		return true
	}
	reason := fmt.Sprintf("circuit breaker open for %s: %d consecutive capacity failures",
		task.SKU, r.brk.consecutive)
	task.Status = scenario.StatusSkipped
	task.Error = reason
	r.lane.Skipped++
	r.lane.BreakerSkipped++
	r.journalOutcome(task, ClassCapacity, reason)
	notify(r.opts, task)
	return false
}

// runSequential is the paper's Algorithm 1: the whole list walked on the
// deployment's shared clock into the target store.
func (c *Collector) runSequential(list *scenario.List, store *dataset.Store, opts Options) (*Report, error) {
	start := c.Service.Clock.Now()
	report := &Report{NodeSecondsBySKU: make(map[string]float64)}
	agg := monitor.NewAggregator()
	lanes := newLaneSet()
	defer func() {
		c.priceLanes(lanes.all, opts.UseSpot)
		foldLanes(report, lanes.all, agg)
	}()

	addPoint := store.Add
	if len(opts.have) > 0 {
		addPoint = func(p dataset.Point) {
			if !opts.have[p.ScenarioID] {
				store.Add(p)
			}
		}
	}
	var flush func() error
	if opts.Journal != nil {
		flush = store.Flush
	}
	run := &taskRun{svc: c.Service, opts: opts, agg: agg, addPoint: addPoint, flush: flush}
	if _, err := c.walk(run, list.Tasks, store, lanes.get); err != nil {
		report.Interrupted = errors.Is(err, ErrInterrupted)
		return report, err
	}

	report.NodeSecondsBySKU = c.Service.NodeSecondsBySKU()
	cost, err := c.PriceNodeSeconds(report.NodeSecondsBySKU, opts.UseSpot)
	if err != nil {
		return report, err
	}
	report.CollectionCostUSD = cost
	report.VirtualSeconds = (c.Service.Clock.Now() - start).Seconds()
	report.ElapsedVirtualSeconds = report.VirtualSeconds
	// With a storage backend attached, every point streamed through Add is
	// already on disk; Flush fsyncs the tail batch and surfaces any
	// write-through failure the run would otherwise swallow.
	return report, store.Flush()
}

// breakerFor returns (creating if needed) the breaker of a SKU.
func breakerFor(m map[string]*breakerState, sku string, policy BreakerPolicy) *breakerState {
	if b, ok := m[sku]; ok {
		return b
	}
	b := newBreaker(policy)
	m[sku] = b
	return b
}

// runScenario executes one task with class-driven retries on the lane's
// pool and records its datapoint, updating the lane's counters.
func (c *Collector) runScenario(r *taskRun, task *scenario.Task, poolID string) error {
	opts := r.opts
	svc := r.svc
	app, err := c.Apps.Get(task.AppName)
	if err != nil {
		task.Status = scenario.StatusFailed
		task.Error = err.Error()
		r.lane.Failed++
		r.journalOutcome(task, ClassApplication, "")
		notify(opts, task)
		return nil
	}
	w, err := app.Parse(task.AppInput)
	if err != nil {
		task.Status = scenario.StatusFailed
		task.Error = err.Error()
		r.lane.Failed++
		r.journalOutcome(task, ClassApplication, "")
		notify(opts, task)
		return nil
	}

	task.Status = scenario.StatusRunning
	notify(opts, task)

	var bt *batchsim.Task
	var class FailureClass
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		task.Attempts++
		r.countAttempt()
		r.journalStart(task)
		spec := batchsim.TaskSpec{
			Name:          task.ID,
			NodesRequired: task.NNodes,
			Run: func(tc batchsim.TaskContext) batchsim.TaskResult {
				env := runner.Env{
					NNodes:       task.NNodes,
					PPN:          task.PPN,
					SKU:          task.SKU,
					Hosts:        tc.NodeIDs,
					TaskRunDir:   "/data/jobs/" + task.ID,
					HostfilePath: "/data/jobs/" + task.ID + "/hostfile",
					AppInputs:    task.AppInput,
				}
				return runner.NewTaskFunc(app, w, env)(tc)
			},
		}
		bt, err = svc.RunToCompletion(poolID, spec)
		if err != nil {
			return fmt.Errorf("collector: scenario %s: %w", task.ID, err)
		}
		class = ClassifyResult(bt.Result)
		if !r.ghost {
			r.opts.Stats.Attempt(string(class))
		}
		if class == ClassNone {
			break
		}
		r.journalFailedAttempt(task, task.Attempts, class, firstLine(bt.Result.Stdout))
		// Only a retryable class consumes another attempt: a preempted
		// spot task re-runs immediately (its replacement node is already
		// booting on this same clock); an application failure would fail
		// identically every time, so it stops here whatever the budget.
		if class.Retryable() && attempt+1 < opts.MaxAttempts {
			r.countRetry(class)
			continue
		}
		break
	}
	task.TaskID = bt.ID

	if class != ClassNone {
		task.Status = scenario.StatusFailed
		task.Error = firstLine(bt.Result.Stdout)
		r.lane.Failed++
		r.addPoint(dataset.Point{
			ScenarioID: task.ID,
			Deployment: c.Deployment,
			AppName:    task.AppName,
			SKU:        task.SKU,
			SKUAlias:   task.SKUAlias,
			NNodes:     task.NNodes,
			PPN:        task.PPN,
			AppInput:   task.AppInput,
			InputDesc:  describeInput(w, task),
			Tags:       task.Tags,
			Failed:     true,
			Error:      task.Error,

			CollectedAt: svc.Clock.NowSeconds(),
		})
		r.journalOutcome(task, class, "")
		notify(opts, task)
		return nil
	}

	execTime := bt.Result.DurationSeconds
	hourly, err := c.hourly(task.SKU, opts.UseSpot)
	if err != nil {
		return fmt.Errorf("collector: pricing scenario %s: %w", task.ID, err)
	}
	cost := pricing.CostAt(hourly, task.NNodes, execTime)

	// The profile is re-derived for utilization; the simulation is
	// deterministic so this matches what the task observed.
	sku, err := c.Catalog.Lookup(task.SKU)
	if err != nil {
		return fmt.Errorf("collector: scenario %s: %w", task.ID, err)
	}
	prof, err := appmodel.Simulate(w, sku, task.NNodes, task.PPN)
	if err != nil {
		return fmt.Errorf("collector: profiling scenario %s: %w", task.ID, err)
	}
	sample := monitor.FromProfile(prof)
	r.agg.Observe(task.SKU, sample)

	r.addPoint(dataset.Point{
		ScenarioID:  task.ID,
		Deployment:  c.Deployment,
		AppName:     task.AppName,
		SKU:         task.SKU,
		SKUAlias:    task.SKUAlias,
		NNodes:      task.NNodes,
		PPN:         task.PPN,
		AppInput:    task.AppInput,
		InputDesc:   describeInput(w, task),
		Tags:        task.Tags,
		ExecTimeSec: execTime,
		CostUSD:     cost,
		Metrics:     runner.ParseVars(bt.Result.Stdout),
		Utilization: sample,
		Bottleneck:  monitor.Classify(sample),
		CollectedAt: svc.Clock.NowSeconds(),
	})
	task.Status = scenario.StatusCompleted
	task.Error = ""
	r.lane.Completed++
	r.journalOutcome(task, ClassNone, "")
	notify(opts, task)
	return nil
}

// hourly resolves the billing rate for a SKU at on-demand or spot terms.
func (c *Collector) hourly(sku string, spot bool) (float64, error) {
	if spot {
		return c.Prices.HourlySpot(c.Region, sku)
	}
	return c.Prices.Hourly(c.Region, sku)
}

// PriceNodeSeconds totals the cost of a node-seconds-by-SKU map at the
// collector's region and on-demand or spot terms, summing in sorted SKU
// order so the float result is deterministic.
func (c *Collector) PriceNodeSeconds(ns map[string]float64, spot bool) (float64, error) {
	total := 0.0
	for _, sku := range sortedKeys(ns) {
		hourly, err := c.hourly(sku, spot)
		if err != nil {
			return 0, err
		}
		total += ns[sku] * hourly / 3600
	}
	return total, nil
}

// priceLanes fills each lane's CostUSD from its node-seconds. Pricing
// errors surface through the run's own pricing path; here they only leave
// the lane cost at zero.
func (c *Collector) priceLanes(lanes []*LaneReport, spot bool) {
	for _, ln := range lanes {
		hourly, err := c.hourly(ln.SKU, spot)
		if err != nil {
			continue
		}
		ln.CostUSD = ln.NodeSeconds * hourly / 3600
	}
}

// laneSet tracks per-VM-type lane reports in first-appearance order.
type laneSet struct {
	index map[string]int
	all   []*LaneReport
}

func newLaneSet() *laneSet {
	return &laneSet{index: map[string]int{}}
}

func (s *laneSet) get(sku, alias string) *LaneReport {
	if i, ok := s.index[sku]; ok {
		return s.all[i]
	}
	s.index[sku] = len(s.all)
	s.all = append(s.all, &LaneReport{SKU: sku, SKUAlias: alias})
	return s.all[len(s.all)-1]
}

// foldLanes finalizes per-lane utilization means and accumulates lane
// counters into the report totals, so lane sums equal totals by
// construction in both collection modes.
func foldLanes(report *Report, lanes []*LaneReport, agg *monitor.Aggregator) {
	for _, ln := range lanes {
		if mean, n := agg.Mean(ln.SKU); n > 0 {
			ln.MeanUtil, ln.Samples = mean, n
		}
		report.Completed += ln.Completed
		report.Failed += ln.Failed
		report.Skipped += ln.Skipped
		report.Attempts += ln.Attempts
		report.Retries += ln.Retries
		report.BreakerSkipped += ln.BreakerSkipped
		report.Resumed += ln.Resumed
		report.Rerun += ln.Rerun
		report.ResumedAttempts += ln.ResumedAttempts
		report.Lanes = append(report.Lanes, *ln)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func describeInput(w appmodel.Workload, task *scenario.Task) string {
	if w.InputDesc != "" {
		return w.InputDesc
	}
	return task.InputDesc()
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

func notify(opts Options, t *scenario.Task) {
	if opts.Progress != nil {
		opts.Progress(t)
	}
}
