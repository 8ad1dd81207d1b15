// The collection walk and the concurrent lane engine.
//
// walk is Algorithm 1's per-task loop, written once. It walks a task slice
// on one batch service: the sequential run walks the whole list on the
// deployment's service into the target store, and each concurrent lane
// walks its VM type's partition on a private service into a store of its
// own. Either way the walk opens a VM type's pool when the VM type changes,
// resizes it per scenario, tears it down at the next change, and books
// each pool segment's virtual seconds and node-seconds to that VM type's
// LaneReport.
//
// In concurrent mode the scenario list is partitioned per VM type into
// independent pool lanes; each lane's walk runs on a private simulation
// substrate: a fresh virtual clock at time zero, a control-plane replica
// with its own quota ledger, and a private batch service
// (batchsim.Service.Lane). A bounded worker pool runs up to
// Options.MaxParallelPools lanes at once on real OS threads.
//
// Determinism comes from the merge, not from the schedule. Every simulated
// quantity a lane produces (execution times, costs, metrics, spot
// preemption draws, node names) depends only on pool-relative coordinates,
// so each lane's local timeline is a time-shifted copy of its segment of
// the sequential timeline. After the lanes join, their points are
// concatenated in canonical lane order (first appearance of the VM type in
// the task list) and each point's timestamp is rebased — in integer
// nanosecond arithmetic, so not even a float ulp drifts — onto the
// sequential-equivalent timeline: lane k's local time t becomes
// start + sum(duration of lanes < k) + t. The result is byte-identical to
// the dataset the sequential walk writes for the same list.
//
// Resume and interruption keep that guarantee. Under Options.Resume each
// lane ghost-replays its journaled prefix so lane clocks and durations
// match the uninterrupted run, and the merge drops points whose scenario is
// already durable in the target store. On Options.Interrupt the engine
// discards the lanes' points entirely instead of merging partial lanes:
// merging a half-finished lane would append its remainder after the other
// lanes on resume and diverge from the canonical order, whereas discarding
// leaves every journaled outcome non-durable so the resumed run re-executes
// the whole list identically.
package collector

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hpcadvisor/internal/batchsim"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/scenario"
)

// walk runs Algorithm 1 over tasks on run.svc: the interrupt check, the
// ghost lookup and skip restore, the planner (which sees view), the pool
// (re)open on a VM-type change, then breaker admission, resize, and
// execution. laneOf returns the report a task's VM type is booked to. It
// returns the virtual time its pool segments spanned.
//
// A pool segment opens before its pool is created, so creation backoff is
// booked, and closes at teardown. A hard error stops the walk with the pool
// still up; its open segment is booked anyway, so a failed lane still has a
// duration for the merge.
func (c *Collector) walk(run *taskRun, tasks []*scenario.Task, view *dataset.Store, laneOf func(sku, alias string) *LaneReport) (elapsed time.Duration, err error) {
	svc, opts := run.svc, run.opts
	breakers := map[string]*breakerState{}

	var (
		poolID   string
		seg      *LaneReport // the lane of the open pool segment; nil when none is open
		segStart time.Duration
		segNS    float64 // the segment SKU's node-second total at open
	)
	closeSegment := func() {
		if seg == nil {
			return
		}
		d := svc.Clock.Now() - segStart
		seg.VirtualSeconds += d.Seconds()
		seg.NodeSeconds += svc.NodeSecondsBySKU()[seg.SKU] - segNS
		elapsed += d
		seg = nil
	}
	teardown := func() error {
		if seg == nil {
			return nil
		}
		closeSegment()
		if opts.DeletePoolAfter {
			return svc.DeletePool(poolID)
		}
		return svc.Resize(poolID, 0)
	}
	defer closeSegment()

	for _, task := range tasks {
		if interrupted(opts) {
			if err := teardown(); err != nil {
				return elapsed, err
			}
			return elapsed, ErrInterrupted
		}
		gout, ghost := TaskOutcome{}, false
		if opts.Resume != nil {
			gout, ghost = opts.Resume.Outcomes[task.ID]
		}
		if task.Status != scenario.StatusPending && !ghost {
			continue
		}
		lane := laneOf(task.SKU, task.SKUAlias)
		run.lane = lane
		run.ghost = ghost
		run.brk = breakerFor(breakers, task.SKU, opts.Breaker)
		if ghost && gout.Status == scenario.StatusSkipped {
			restoreSkip(opts, task, lane, gout)
			continue
		}
		if !ghost && opts.Planner != nil {
			if ok, reason := opts.Planner.Decide(task, view); !ok {
				task.Status = scenario.StatusSkipped
				task.Error = reason
				lane.Skipped++
				// Journaled so resume restores the decision instead of
				// re-deciding against a different store state.
				run.journalOutcome(task, ClassNone, reason)
				notify(opts, task)
				continue
			}
		}
		if ghost {
			// Ghost replay recomputes the attempt history from scratch so
			// it matches an uninterrupted run exactly.
			task.Attempts = 0
			task.Status = scenario.StatusPending
			task.Error = ""
		}

		// Pool-per-VM-type reuse (Algorithm 1 lines 3-7).
		if seg != lane {
			if err := teardown(); err != nil {
				return elapsed, err
			}
			seg, segStart, segNS = lane, svc.Clock.Now(), svc.NodeSecondsBySKU()[task.SKU]
			poolID = "pool-" + task.SKUAlias
			if err := c.createPool(run, task, poolID); err != nil {
				return elapsed, err
			}
		}
		if !c.admitTask(run, task) {
			continue
		}
		if ok, err := c.resizePool(run, task, poolID); err != nil {
			return elapsed, err
		} else if !ok {
			if ghost {
				run.finishGhost(task, gout)
			}
			continue
		}
		if err := c.runScenario(run, task, poolID); err != nil {
			return elapsed, err
		}
		if ghost {
			run.finishGhost(task, gout)
		}
	}
	if err := teardown(); err != nil {
		return elapsed, err
	}
	return elapsed, nil
}

// lane is one VM type's partition of the task list plus everything its
// walk produced: the private service, the lane's points, per-point
// completion stamps on the lane clock, and the lane report.
type lane struct {
	tasks  []*scenario.Task
	svc    *batchsim.Service
	points *dataset.Store
	stamps []time.Duration // lane-clock completion time per point
	rep    LaneReport
	// duration is the lane's virtual timeline length: its one pool
	// segment, opened at lane time zero (zero if it never opened a pool).
	duration time.Duration
	err      error
}

// collect walks the lane's partition on a private service into a store of
// its own. Journaled outcomes from a lane are non-durable until the merge
// commits (taskRun.flush stays nil).
func (ln *lane) collect(c *Collector, opts Options, agg *monitor.Aggregator) error {
	ln.points = dataset.NewStore()
	svc, err := c.Service.Lane()
	if err != nil {
		return err
	}
	ln.svc = svc
	addPoint := func(p dataset.Point) {
		ln.points.Add(p)
		ln.stamps = append(ln.stamps, svc.Clock.Now())
	}
	run := &taskRun{svc: svc, opts: opts, agg: agg, addPoint: addPoint}
	ln.duration, err = c.walk(run, ln.tasks, ln.points, func(string, string) *LaneReport { return &ln.rep })
	return err
}

// runConcurrent executes the lanes at bounded concurrency and merges their
// results into store deterministically.
func (c *Collector) runConcurrent(lanes []*lane, store *dataset.Store, opts Options) (*Report, error) {
	report := &Report{NodeSecondsBySKU: make(map[string]float64)}
	agg := monitor.NewAggregator()
	laneReports := make([]*LaneReport, 0, len(lanes))
	for _, ln := range lanes {
		laneReports = append(laneReports, &ln.rep)
	}
	defer func() {
		c.priceLanes(laneReports, opts.UseSpot)
		foldLanes(report, laneReports, agg)
	}()

	// Progress callbacks fire from lane goroutines; serialize them so user
	// code never observes two concurrent calls.
	laneOpts := opts
	if opts.Progress != nil {
		var mu sync.Mutex
		inner := opts.Progress
		laneOpts.Progress = func(t *scenario.Task) {
			mu.Lock()
			defer mu.Unlock()
			inner(t)
		}
	}

	workers := opts.MaxParallelPools
	if workers > len(lanes) {
		workers = len(lanes)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ln.err = ln.collect(c, laneOpts, agg)
		}(ln)
	}
	wg.Wait()

	for _, ln := range lanes {
		if errors.Is(ln.err, ErrInterrupted) {
			// Discard the lanes' points (see the package comment): nothing
			// is merged, journaled lane outcomes stay non-durable, and the
			// resumed run re-executes the whole list in canonical order.
			report.Interrupted = true
			return report, ErrInterrupted
		}
	}

	// Merge in canonical lane order: rebase timestamps onto the
	// sequential-equivalent timeline, renumber batch task IDs into one
	// global sequence, and fold meters and counters.
	start := c.Service.Clock.Now()
	var cum time.Duration
	taskOffset := 0
	var firstErr error
	for _, ln := range lanes {
		pts := ln.points.All()
		stamps := ln.stamps
		if len(opts.have) > 0 {
			// Resume: ghost replays re-added their points to the lane so
			// its planner view and stamps matched the original run; drop
			// the ones whose datapoint is already durable in store.
			fp, fs := pts[:0], stamps[:0]
			for i := range pts {
				if opts.have[pts[i].ScenarioID] {
					continue
				}
				fp = append(fp, pts[i])
				fs = append(fs, stamps[i])
			}
			pts, stamps = fp, fs
		}
		for i := range pts {
			pts[i].CollectedAt = (start + cum + stamps[i]).Seconds()
		}
		store.AddAll(pts)
		renumberTasks(ln.tasks, taskOffset)
		if ln.err != nil && firstErr == nil {
			firstErr = ln.err
		}
		if ln.svc != nil {
			c.Service.Meter.AddTotals(ln.svc.UsageSnapshot())
		}
		cum += ln.duration
		taskOffset += ln.rep.Attempts + ln.rep.ResumedAttempts
	}
	c.Service.Clock.Advance(cum)

	report.NodeSecondsBySKU = c.Service.NodeSecondsBySKU()
	cost, err := c.PriceNodeSeconds(report.NodeSecondsBySKU, opts.UseSpot)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	report.CollectionCostUSD = cost
	report.VirtualSeconds = cum.Seconds()
	report.ElapsedVirtualSeconds = makespan(lanes, opts.MaxParallelPools).Seconds()
	// Lane points merged into store above went through its attached
	// backend (if any) in canonical lane order; Flush makes them durable.
	if err := store.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return report, firstErr
}

// partitionLanes groups the walkable tasks per VM type, preserving task
// order within each lane and ordering lanes by first appearance — the order
// the sequential walk would open their pools. Under resume, journaled
// terminal tasks are included so each lane ghost-replays its prefix and the
// lane clock (and therefore the merge rebase) matches the original run.
func partitionLanes(list *scenario.List, resume *Replay) []*lane {
	index := map[string]int{}
	var lanes []*lane
	for _, t := range list.Tasks {
		if t.Status != scenario.StatusPending && !isGhost(resume, t) {
			continue
		}
		i, ok := index[t.SKU]
		if !ok {
			i = len(lanes)
			index[t.SKU] = i
			lanes = append(lanes, &lane{rep: LaneReport{SKU: t.SKU, SKUAlias: t.SKUAlias}})
		}
		lanes[i].tasks = append(lanes[i].tasks, t)
	}
	return lanes
}

// renumberTasks rewrites the lane-local batch task IDs recorded on the
// scenario tasks ("task-00001"...) into the global sequence the sequential
// walk would have assigned, by offsetting with the attempts of all earlier
// lanes.
func renumberTasks(tasks []*scenario.Task, offset int) {
	if offset == 0 {
		return
	}
	for _, t := range tasks {
		var n int
		if _, err := fmt.Sscanf(t.TaskID, "task-%05d", &n); err == nil && n > 0 {
			t.TaskID = fmt.Sprintf("task-%05d", n+offset)
		}
	}
}

// makespan models scheduling the lanes, in canonical order, onto `workers`
// parallel slots (earliest-free slot first): the virtual wall-clock a user
// would wait if the pools really ran concurrently in the cloud. With one
// worker it degenerates to the sequential total.
func makespan(lanes []*lane, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	if workers > len(lanes) {
		workers = len(lanes)
	}
	if workers == 0 {
		return 0
	}
	free := make([]time.Duration, workers)
	for _, ln := range lanes {
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += ln.duration
	}
	var end time.Duration
	for _, f := range free {
		if f > end {
			end = f
		}
	}
	return end
}
