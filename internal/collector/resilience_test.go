package collector

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcadvisor/internal/batchsim"
	"hpcadvisor/internal/cloudsim"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/scenario"
)

// TestFailureTaxonomyClassification locks the mapping from every simulated
// error kind to its failure class — and the retry decision that follows.
func TestFailureTaxonomyClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FailureClass
	}{
		{"nil", nil, ClassNone},
		{"capacity", cloudsim.ErrCapacity, ClassCapacity},
		{"capacity wrapped", fmt.Errorf("resize: %w", cloudsim.ErrCapacity), ClassCapacity},
		{"throttled", cloudsim.ErrThrottled, ClassTransient},
		{"unavailable", cloudsim.ErrUnavailable, ClassTransient},
		{"quota", cloudsim.ErrQuotaExceeded, ClassQuota},
		{"not found", cloudsim.ErrNotFound, ClassFatal},
		{"already exists", cloudsim.ErrAlreadyExists, ClassFatal},
		{"region", cloudsim.ErrRegion, ClassFatal},
		{"invalid name", cloudsim.ErrInvalidName, ClassFatal},
		{"dependency", cloudsim.ErrDependency, ClassFatal},
		{"pool not found", batchsim.ErrPoolNotFound, ClassFatal},
		{"pool exists", batchsim.ErrPoolExists, ClassFatal},
		{"task too wide", batchsim.ErrTaskTooWide, ClassFatal},
		{"pool busy", batchsim.ErrPoolBusy, ClassFatal},
		{"task not found", batchsim.ErrTaskNotFound, ClassFatal},
		{"unknown", errors.New("mystery"), ClassFatal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}

	retry := map[FailureClass]bool{
		ClassNone:        false,
		ClassTransient:   true,
		ClassCapacity:    true,
		ClassPreemption:  true,
		ClassQuota:       false,
		ClassApplication: false,
		ClassFatal:       false,
	}
	for class, want := range retry {
		if got := class.Retryable(); got != want {
			t.Errorf("%s.Retryable() = %v, want %v", class, got, want)
		}
	}
}

// TestFailureTaxonomyResults locks the terminal-task-state mapping.
func TestFailureTaxonomyResults(t *testing.T) {
	cases := []struct {
		name string
		res  batchsim.TaskResult
		want FailureClass
	}{
		{"completed", batchsim.TaskResult{ExitCode: 0}, ClassNone},
		{"preempted", batchsim.TaskResult{ExitCode: 137, Preempted: true}, ClassPreemption},
		{"app failure", batchsim.TaskResult{ExitCode: 1}, ClassApplication},
		{"oom", batchsim.TaskResult{ExitCode: 137}, ClassApplication},
	}
	for _, tc := range cases {
		if got := ClassifyResult(tc.res); got != tc.want {
			t.Errorf("ClassifyResult(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBackoffDeterministicCapped: delays are reproducible per (task,
// attempt), grow exponentially, and cap at MaxSeconds plus jitter.
func TestBackoffDeterministicCapped(t *testing.T) {
	var p BackoffPolicy
	if p.delay("task-a", 1) != p.delay("task-a", 1) {
		t.Fatal("delay is not deterministic")
	}
	if p.delay("task-a", 1) == p.delay("task-b", 1) {
		t.Error("jitter does not vary by task")
	}
	prev := time.Duration(0)
	for n := 1; n <= 5; n++ {
		d := p.delay("task-a", n)
		if d <= prev {
			t.Errorf("delay(%d) = %v, not growing past %v", n, d, prev)
		}
		prev = d
	}
	// Past the cap the exponential part is constant; only jitter varies.
	max := time.Duration(float64(time.Second) * (defaultBackoffMax + defaultBackoffBase))
	for n := 6; n <= 12; n++ {
		if d := p.delay("task-a", n); d > max {
			t.Errorf("delay(%d) = %v exceeds cap %v", n, d, max)
		}
	}
}

// TestBreakerStateMachine: closed -> open at the threshold, cooldown gates
// the half-open probe, probe failure reopens, probe success closes.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(BreakerPolicy{Threshold: 2, CooldownSeconds: 10})
	if !b.admit(0) {
		t.Fatal("closed breaker must admit")
	}
	if b.failure(0) {
		t.Fatal("first failure must not open a threshold-2 breaker")
	}
	if !b.failure(0) {
		t.Fatal("second failure must open")
	}
	if b.admit(5 * time.Second) {
		t.Fatal("open breaker admitted before cooldown")
	}
	if !b.admit(10 * time.Second) {
		t.Fatal("cooled-down breaker must admit a probe")
	}
	if b.state != brkHalfOpen {
		t.Fatalf("state = %s, want half-open", b.state)
	}
	if !b.failure(10 * time.Second) {
		t.Fatal("failed probe must reopen")
	}
	if b.admit(15 * time.Second) {
		t.Fatal("reopened breaker admitted before the new cooldown")
	}
	if !b.admit(25 * time.Second) {
		t.Fatal("second probe not admitted")
	}
	if closed := b.success(); !closed {
		t.Fatal("successful probe must report closing")
	}
	if b.state != brkClosed || b.consecutive != 0 {
		t.Fatalf("after success: state=%s consecutive=%d", b.state, b.consecutive)
	}

	off := newBreaker(BreakerPolicy{Threshold: -1})
	for i := 0; i < 10; i++ {
		if off.failure(0) {
			t.Fatal("disabled breaker opened")
		}
	}
	if !off.admit(0) {
		t.Fatal("disabled breaker must always admit")
	}
}

// TestTransientResizeRetriesWithBackoff: injected control-plane throttles on
// the resize path are retried with the exact deterministic backoff delays,
// and accounted as retries — not extra task attempts.
func TestTransientResizeRetriesWithBackoff(t *testing.T) {
	elapsed := func(inject bool) (time.Duration, *Report, *scenario.List, monitor.CollectionSnapshot) {
		f := newFixture(t)
		if inject {
			f.cloud.InjectFaults("ResizePool", cloudsim.ErrThrottled, cloudsim.ErrUnavailable)
		}
		list := smallLAMMPSList(t, []string{"Standard_HB120rs_v3"}, []int{1})
		stats := monitor.NewCollectionStats()
		rep, err := f.col.Run(list, f.store, Options{MaxAttempts: 3, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		return f.clock.Now(), rep, list, stats.Snapshot()
	}

	clean, _, _, _ := elapsed(false)
	faulty, rep, list, snap := elapsed(true)

	task := list.Tasks[0]
	if task.Status != scenario.StatusCompleted {
		t.Fatalf("task = %s (%s)", task.Status, task.Error)
	}
	if rep.Retries != 2 || rep.Attempts != 1 {
		t.Errorf("retries = %d attempts = %d, want 2 and 1", rep.Retries, rep.Attempts)
	}
	var p BackoffPolicy
	want := p.delay(task.ID, 1) + p.delay(task.ID, 2)
	if got := faulty - clean; got != want {
		t.Errorf("backoff advanced the clock by %v, want exactly %v", got, want)
	}
	if snap.RetriesByClass[string(ClassTransient)] != 2 {
		t.Errorf("stats retries = %v", snap.RetriesByClass)
	}
	if snap.AttemptsByClass[string(ClassTransient)] != 2 || snap.AttemptsByClass[string(ClassNone)] != 1 {
		t.Errorf("stats attempts = %v", snap.AttemptsByClass)
	}
}

// TestCreatePoolTransientRetry: a throttle on pool creation is retried
// instead of aborting the run.
func TestCreatePoolTransientRetry(t *testing.T) {
	f := newFixture(t)
	f.cloud.InjectFault("CreatePool", cloudsim.ErrUnavailable)
	list := smallLAMMPSList(t, []string{"Standard_HB120rs_v3"}, []int{1})
	rep, err := f.col.Run(list, f.store, Options{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.Retries != 1 {
		t.Errorf("completed = %d retries = %d, want 1 and 1", rep.Completed, rep.Retries)
	}
}

// TestLaneSecondsIncludePoolCreateBackoff: a retried pool creation's
// backoff is time the VM type's pool segment occupies, so the lanes'
// virtual seconds still sum to the run's total.
func TestLaneSecondsIncludePoolCreateBackoff(t *testing.T) {
	f := newFixture(t)
	f.cloud.InjectFault("CreatePool", cloudsim.ErrUnavailable)
	list := smallLAMMPSList(t, []string{"Standard_HB120rs_v3", "Standard_HC44rs"}, []int{1, 2})
	rep, err := f.col.Run(list, f.store, Options{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 1 {
		t.Fatalf("retries = %d, want the one injected creation fault", rep.Retries)
	}
	var vsec float64
	for _, ln := range rep.Lanes {
		vsec += ln.VirtualSeconds
	}
	if math.Abs(vsec-rep.VirtualSeconds) > 1e-9 {
		t.Errorf("lane virtual-seconds sum %.3f != total %.3f", vsec, rep.VirtualSeconds)
	}
}

// TestQuotaFailureNotRetried: quota exhaustion is terminal — no retries, no
// breaker involvement — even with attempt budget left.
func TestQuotaFailureNotRetried(t *testing.T) {
	f := newFixture(t)
	sub, _ := f.cloud.Subscription("sub1")
	sub.SetQuota("southcentralus", "HBv3", 60) // below one 120-core node
	list := smallLAMMPSList(t, []string{"Standard_HB120rs_v3"}, []int{1})
	stats := monitor.NewCollectionStats()
	rep, err := f.col.Run(list, f.store, Options{MaxAttempts: 3, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Retries != 0 {
		t.Errorf("failed = %d retries = %d, want 1 and 0", rep.Failed, rep.Retries)
	}
	if !strings.Contains(list.Tasks[0].Error, "quota") {
		t.Errorf("task error = %q, want a quota message", list.Tasks[0].Error)
	}
	if snap := stats.Snapshot(); snap.BreakerTrips != 0 {
		t.Errorf("quota failures fed the breaker: %d trips", snap.BreakerTrips)
	}
}

// deadSKURun collects a two-SKU sweep where the second SKU is
// capacity-dead, with a threshold-3 breaker.
func deadSKURun(t *testing.T, parallel int) (*fixture, *scenario.List, *Report, *monitor.CollectionStats) {
	t.Helper()
	f := newFixture(t)
	sub, _ := f.cloud.Subscription("sub1")
	sub.FailCapacity("southcentralus", "HBv3", -1)
	list := smallLAMMPSList(t, []string{"Standard_HC44rs", "Standard_HB120rs_v3"}, []int{1, 2, 4, 8})
	stats := monitor.NewCollectionStats()
	rep, err := f.col.Run(list, f.store, Options{
		Breaker:          BreakerPolicy{Threshold: 3},
		Stats:            stats,
		MaxParallelPools: parallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, list, rep, stats
}

// TestCapacityDeadSKUTripsBreaker is the acceptance scenario: a SKU whose
// allocations always fail trips its breaker after the threshold, its
// remaining scenarios are skipped without consuming attempts or budget, and
// the healthy SKU's lane completes normally — identically in sequential and
// concurrent modes.
func TestCapacityDeadSKUTripsBreaker(t *testing.T) {
	seqF, seqList, seqRep, seqStats := deadSKURun(t, 1)

	if seqRep.Completed != 4 || seqRep.Failed != 3 || seqRep.Skipped != 1 || seqRep.BreakerSkipped != 1 {
		t.Fatalf("report = %+v", seqRep)
	}
	if ns := seqRep.NodeSecondsBySKU["Standard_HB120rs_v3"]; ns != 0 {
		t.Errorf("dead SKU accrued %.1f node-seconds; breaker did not stop spend", ns)
	}
	snap := seqStats.Snapshot()
	if snap.BreakerState["Standard_HB120rs_v3"] != "open" || snap.BreakerTrips != 1 {
		t.Errorf("breaker stats = %+v", snap)
	}
	var dead []*scenario.Task
	for _, task := range seqList.Tasks {
		if task.SKU == "Standard_HB120rs_v3" {
			dead = append(dead, task)
		}
	}
	for _, task := range dead[:3] {
		if task.Status != scenario.StatusFailed || !strings.Contains(task.Error, "capacity") {
			t.Errorf("%s = %s (%q), want capacity failure", task.ID, task.Status, task.Error)
		}
	}
	if last := dead[3]; last.Status != scenario.StatusSkipped || !strings.Contains(last.Error, "circuit breaker open") {
		t.Errorf("%s = %s (%q), want breaker skip", last.ID, last.Status, last.Error)
	}

	// Concurrent lanes must reach the identical dataset, task list, and
	// accounting: the replica copies the capacity fault, so the SKU is
	// just as dead in its lane.
	parF, parList, parRep, _ := deadSKURun(t, 2)
	seqBytes, _ := seqF.store.Marshal()
	parBytes, _ := parF.store.Marshal()
	if !bytes.Equal(seqBytes, parBytes) {
		t.Fatalf("dead-SKU parallel dataset differs:\nseq:\n%s\npar:\n%s", seqBytes, parBytes)
	}
	seqTasks, _ := seqList.Marshal()
	parTasks, _ := parList.Marshal()
	if !bytes.Equal(seqTasks, parTasks) {
		t.Fatalf("dead-SKU parallel task list differs:\nseq:\n%s\npar:\n%s", seqTasks, parTasks)
	}
	assertReportsEqual(t, seqRep, parRep)
	if seqRep.BreakerSkipped != parRep.BreakerSkipped || seqRep.Retries != parRep.Retries {
		t.Errorf("resilience counters differ: seq %+v par %+v", seqRep, parRep)
	}
}

// TestBreakerHalfOpenReadmission: after the cooldown a half-open probe
// re-admits the SKU, and a successful allocation closes the breaker.
func TestBreakerHalfOpenReadmission(t *testing.T) {
	f := newFixture(t)
	sub, _ := f.cloud.Subscription("sub1")
	sub.FailCapacity("southcentralus", "HBv3", 3) // outage ends after 3 allocations

	// HBv3 scenarios, then an HC44rs interlude (advancing the virtual clock
	// past the cooldown), then one more HBv3 scenario as the probe.
	listA := smallLAMMPSList(t, []string{"Standard_HB120rs_v3"}, []int{1, 2, 4})
	listB := smallLAMMPSList(t, []string{"Standard_HC44rs"}, []int{1})
	listA2 := smallLAMMPSList(t, []string{"Standard_HB120rs_v3"}, []int{8})
	list := &scenario.List{Tasks: append(append(listA.Tasks, listB.Tasks...), listA2.Tasks...)}

	jp := filepath.Join(t.TempDir(), "sweep.jnl")
	j, _, err := OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	stats := monitor.NewCollectionStats()
	rep, err := f.col.Run(list, f.store, Options{
		Breaker: BreakerPolicy{Threshold: 3, CooldownSeconds: 60},
		Stats:   stats,
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	if rep.Completed != 2 || rep.Failed != 3 {
		t.Fatalf("report = %+v", rep)
	}
	probe := list.Tasks[len(list.Tasks)-1]
	if probe.Status != scenario.StatusCompleted {
		t.Fatalf("probe task = %s (%q); breaker never re-admitted the SKU", probe.Status, probe.Error)
	}
	snap := stats.Snapshot()
	if snap.BreakerState["Standard_HB120rs_v3"] != "closed" || snap.BreakerTrips != 1 {
		t.Errorf("breaker stats = %+v", snap)
	}
	// The journal carries the state machine: open, then half-open, closed.
	_, recs, err := ReadJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	var transitions []string
	for _, rec := range recs {
		if rec.Kind == recBreaker {
			transitions = append(transitions, rec.Status)
		}
	}
	want := []string{brkOpen, brkHalfOpen, brkClosed}
	if len(transitions) != len(want) {
		t.Fatalf("breaker transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("breaker transitions = %v, want %v", transitions, want)
		}
	}
}

// TestJournalSealsCompleteRuns: an uninterrupted journaled sweep seals
// complete, every outcome is durable, and the journal is not resumable.
func TestJournalSealsCompleteRuns(t *testing.T) {
	f := newFixture(t)
	list := smallLAMMPSList(t, []string{"Standard_HB120rs_v3"}, []int{1, 2})
	jp := filepath.Join(t.TempDir(), "sweep.jnl")
	j, _, err := OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.col.Run(list, f.store, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	replay, _, err := ReadJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Sealed || replay.SealReason != SealComplete {
		t.Fatalf("seal = %v %q", replay.Sealed, replay.SealReason)
	}
	if replay.Resumable() {
		t.Error("sealed-complete journal reported resumable")
	}
	if len(replay.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(replay.Outcomes))
	}
	for id, out := range replay.Outcomes {
		if !out.Durable {
			t.Errorf("outcome %s not durable after sealed run", id)
		}
	}
}

// interruptAfter builds an Options.Interrupt channel that fires once n
// tasks have completed.
func interruptAfter(n int) (<-chan struct{}, func(*scenario.Task)) {
	ch := make(chan struct{})
	var once sync.Once
	count := 0
	return ch, func(task *scenario.Task) {
		if task.Status != scenario.StatusCompleted {
			return
		}
		count++
		if count >= n {
			once.Do(func() { close(ch) })
		}
	}
}

// TestInterruptResumeSequentialByteIdentical is the tentpole oracle: a
// sweep interrupted at a task boundary and resumed in a fresh process
// (fresh clock, fresh cloud, replayed journal) converges on a dataset and
// task list byte-identical to an uninterrupted run — resuming either
// sequentially or in concurrent lane mode.
func TestInterruptResumeSequentialByteIdentical(t *testing.T) {
	skus := threeSKUs
	nnodes := []int{1, 2, 4}
	refF, refList, refRep := collectWith(t, Options{}, skus, nnodes)
	refBytes, _ := refF.store.Marshal()
	refTasks, _ := refList.Marshal()

	for _, tc := range []struct {
		name      string
		cut       int
		resumePar int
	}{
		{"cut1-seq", 1, 1},
		{"cut4-seq", 4, 1},
		{"cut7-seq", 7, 1},
		{"cut4-concurrent-resume", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jp := filepath.Join(t.TempDir(), "sweep.jnl")
			j, _, err := OpenJournal(jp)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted lifetime.
			f1 := newFixture(t)
			list1 := smallLAMMPSList(t, skus, nnodes)
			interrupt, progress := interruptAfter(tc.cut)
			rep1, err := f1.col.Run(list1, f1.store, Options{
				Journal: j, Interrupt: interrupt, Progress: progress,
			})
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
			if !rep1.Interrupted {
				t.Error("report not marked interrupted")
			}
			j.Close()
			sealed, _, err := ReadJournal(jp)
			if err != nil {
				t.Fatal(err)
			}
			if !sealed.Sealed || sealed.SealReason != SealInterrupted {
				t.Fatalf("interrupt did not seal the journal: %v %q", sealed.Sealed, sealed.SealReason)
			}
			if !sealed.Resumable() {
				t.Fatal("interrupted journal must be resumable")
			}

			// Resumed lifetime: fresh simulation, the store as the crash left
			// it, a regenerated task list restored from the journal.
			f2 := newFixture(t)
			j2, replay, err := OpenJournal(jp)
			if err != nil {
				t.Fatal(err)
			}
			list2 := smallLAMMPSList(t, skus, nnodes)
			replay.Apply(list2)
			rep2, err := f2.col.Run(list2, f1.store, Options{
				Journal: j2, Resume: replay, MaxParallelPools: tc.resumePar,
			})
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()

			gotBytes, _ := f1.store.Marshal()
			if !bytes.Equal(gotBytes, refBytes) {
				t.Fatalf("resumed dataset differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", gotBytes, refBytes)
			}
			gotTasks, _ := list2.Marshal()
			if !bytes.Equal(gotTasks, refTasks) {
				t.Fatalf("resumed task list differs:\ngot:\n%s\nwant:\n%s", gotTasks, refTasks)
			}
			if rep2.Completed != refRep.Completed || rep2.Failed != refRep.Failed || rep2.Skipped != refRep.Skipped {
				t.Errorf("resumed totals %+v, want %+v", rep2, refRep)
			}
			// Sequential outcomes were durable at the kill: every journaled
			// task restores without re-collection.
			if rep2.Resumed != tc.cut || rep2.Rerun != 0 {
				t.Errorf("resumed = %d rerun = %d, want %d and 0", rep2.Resumed, rep2.Rerun, tc.cut)
			}
			if rep2.Attempts+rep2.ResumedAttempts != refRep.Attempts {
				t.Errorf("attempts %d + resumed %d != uninterrupted %d",
					rep2.Attempts, rep2.ResumedAttempts, refRep.Attempts)
			}
			// The re-journaled ghost outcomes are marked Resumed.
			_, recs, err := ReadJournal(jp)
			if err != nil {
				t.Fatal(err)
			}
			rejournaled := 0
			for _, rec := range recs {
				if rec.Kind == recOutcome && rec.Resumed {
					rejournaled++
				}
			}
			if rejournaled != tc.cut {
				t.Errorf("re-journaled ghost outcomes = %d, want %d", rejournaled, tc.cut)
			}
		})
	}
}

// TestInterruptConcurrentDiscardsShards: interrupting concurrent lanes
// merges nothing (a partial merge could never re-converge), and the resume
// re-executes the whole list to the byte-identical dataset.
func TestInterruptConcurrentDiscardsShards(t *testing.T) {
	skus := threeSKUs
	nnodes := []int{1, 2, 4}
	refF, refList, _ := collectWith(t, Options{MaxParallelPools: 3}, skus, nnodes)
	refBytes, _ := refF.store.Marshal()
	refTasks, _ := refList.Marshal()

	jp := filepath.Join(t.TempDir(), "sweep.jnl")
	j, _, err := OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	f1 := newFixture(t)
	list1 := smallLAMMPSList(t, skus, nnodes)
	interrupt, progress := interruptAfter(2)
	rep1, err := f1.col.Run(list1, f1.store, Options{
		MaxParallelPools: 3, Journal: j, Interrupt: interrupt, Progress: progress,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !rep1.Interrupted {
		t.Error("report not marked interrupted")
	}
	if f1.store.Len() != 0 {
		t.Fatalf("interrupted concurrent run merged %d points; shards must be discarded", f1.store.Len())
	}
	j.Close()

	f2 := newFixture(t)
	j2, replay, err := OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	list2 := smallLAMMPSList(t, skus, nnodes)
	replay.Apply(list2)
	rep2, err := f2.col.Run(list2, f1.store, Options{
		MaxParallelPools: 3, Journal: j2, Resume: replay,
	})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()

	gotBytes, _ := f1.store.Marshal()
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("resumed concurrent dataset differs:\ngot:\n%s\nwant:\n%s", gotBytes, refBytes)
	}
	gotTasks, _ := list2.Marshal()
	if !bytes.Equal(gotTasks, refTasks) {
		t.Fatalf("resumed concurrent task list differs:\ngot:\n%s\nwant:\n%s", gotTasks, refTasks)
	}
	// Lane outcomes never became durable, so every journaled task re-ran.
	if rep2.Resumed != 0 || rep2.Rerun != len(replay.Outcomes) {
		t.Errorf("resumed = %d rerun = %d, want 0 and %d", rep2.Resumed, rep2.Rerun, len(replay.Outcomes))
	}
}

// TestAttemptsAccountingAcrossResume is the regression for attempt counting
// when a sweep's attempts span two process lifetimes: lane sums must equal
// report totals, task attempt counts must equal live plus replayed
// attempts, and the combined total must match the uninterrupted run. A
// naive recount (task.Attempts folded into Report.Attempts on resume)
// double-counts and fails here.
func TestAttemptsAccountingAcrossResume(t *testing.T) {
	// Spot capacity with a deep retry budget: preemptions make attempt
	// counts exceed task counts, exercising the split.
	opts := Options{UseSpot: true, MaxAttempts: 12}
	skus := threeSKUs
	nnodes := []int{1, 2, 3, 4, 8}
	refF, _, refRep := collectWith(t, opts, skus, nnodes)
	refBytes, _ := refF.store.Marshal()
	if refRep.Attempts <= refRep.Completed {
		t.Fatalf("fixture has no retries (attempts %d, completed %d); accounting untested",
			refRep.Attempts, refRep.Completed)
	}

	jp := filepath.Join(t.TempDir(), "sweep.jnl")
	j, _, err := OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	f1 := newFixture(t)
	list1 := smallLAMMPSList(t, skus, nnodes)
	iopts := opts
	iopts.Journal = j
	iopts.Interrupt, iopts.Progress = interruptAfter(6)
	if _, err := f1.col.Run(list1, f1.store, iopts); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	j.Close()

	f2 := newFixture(t)
	j2, replay, err := OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	list2 := smallLAMMPSList(t, skus, nnodes)
	replay.Apply(list2)
	ropts := opts
	ropts.Journal = j2
	ropts.Resume = replay
	rep2, err := f2.col.Run(list2, f1.store, ropts)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()

	gotBytes, _ := f1.store.Marshal()
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatal("resumed spot dataset differs from uninterrupted run")
	}
	sumTask := 0
	for _, task := range list2.Tasks {
		sumTask += task.Attempts
	}
	if sumTask != rep2.Attempts+rep2.ResumedAttempts {
		t.Errorf("sum(task.Attempts) = %d, want Attempts %d + ResumedAttempts %d",
			sumTask, rep2.Attempts, rep2.ResumedAttempts)
	}
	if rep2.Attempts+rep2.ResumedAttempts != refRep.Attempts {
		t.Errorf("attempts across lifetimes = %d + %d, want uninterrupted total %d",
			rep2.Attempts, rep2.ResumedAttempts, refRep.Attempts)
	}
	// Lane sums equal report totals for every resilience counter.
	var lanes LaneReport
	for _, ln := range rep2.Lanes {
		lanes.Attempts += ln.Attempts
		lanes.Retries += ln.Retries
		lanes.BreakerSkipped += ln.BreakerSkipped
		lanes.Resumed += ln.Resumed
		lanes.Rerun += ln.Rerun
		lanes.ResumedAttempts += ln.ResumedAttempts
	}
	if lanes.Attempts != rep2.Attempts || lanes.Retries != rep2.Retries ||
		lanes.BreakerSkipped != rep2.BreakerSkipped || lanes.Resumed != rep2.Resumed ||
		lanes.Rerun != rep2.Rerun || lanes.ResumedAttempts != rep2.ResumedAttempts {
		t.Errorf("lane sums %+v do not match report %+v", lanes, rep2)
	}
}

// TestControlPlaneFaultStorm: a storm of injected throttles and outages
// across pool creation and resizing delays the sweep but never dents it.
func TestControlPlaneFaultStorm(t *testing.T) {
	f := newFixture(t)
	// Fault queues drain into consecutive calls of the same operation, so
	// each burst is sized under the MaxAttempts=4 retry budget.
	f.cloud.InjectFaults("CreatePool", cloudsim.ErrUnavailable, cloudsim.ErrThrottled)
	f.cloud.InjectFaults("ResizePool",
		cloudsim.ErrThrottled, cloudsim.ErrUnavailable, cloudsim.ErrThrottled)
	list := smallLAMMPSList(t, []string{"Standard_HB120rs_v3", "Standard_HC44rs"}, []int{1, 2, 4})
	jp := filepath.Join(t.TempDir(), "sweep.jnl")
	j, _, err := OpenJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	stats := monitor.NewCollectionStats()
	rep, err := f.col.Run(list, f.store, Options{MaxAttempts: 4, Journal: j, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if rep.Completed != 6 || rep.Failed != 0 {
		t.Fatalf("storm broke the sweep: %+v", rep)
	}
	if rep.Retries != 5 {
		t.Errorf("retries = %d, want 5 (one per injected fault)", rep.Retries)
	}
	if snap := stats.Snapshot(); snap.AttemptsByClass[string(ClassTransient)] != 5 {
		t.Errorf("transient attempts = %v", snap.AttemptsByClass)
	}
	// Every classified failure left an attempt record in the journal.
	_, recs, err := ReadJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	classified := 0
	for _, rec := range recs {
		if rec.Kind == recAttempt && rec.Class == string(ClassTransient) {
			classified++
		}
	}
	if classified != 5 {
		t.Errorf("journaled transient attempts = %d, want 5", classified)
	}
}
