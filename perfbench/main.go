// Command perfbench is the repository benchmark: it drives HPCAdvisor end to
// end through its exported packages and a real loopback HTTP listener, and
// prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	time-to-advice  config -> deploy -> journaled collect into a segment
//	                store -> close -> compact -> cold open -> first
//	                /api/v1/advice over loopback; one operation is one
//	                whole pipeline
//	serve-wide      read-only advice over a 50k-point compacted, mmap-served
//	                store; every query is distinct, so no cache answers it
//	serve-live      hot advice, If-None-Match revalidations and a filtered
//	                pareto.svg, with a Store.Add after every 40th request
//
// Load is a closed loop from this process: the next request leaves only
// after the previous reply, over at most two connections. With --trace 0
// the result holds the end-to-end metrics; with --trace 1 a separate pass
// runs the workload untraced then traced, reports the per-layer metrics and
// the tracing overhead, and writes spans and layer summaries to
// --trace-out.
//
// All workload state lives under --scratch (default .bench_build/state in
// the working directory). The program keeps its own flush policy: every
// journal record is fsynced, the WAL every 32 appends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hpcadvisor/internal/fsatomic"
)

// clock reads the wall clock. The benchmark measures real elapsed time; the
// simulated collection it drives keeps its own virtual clock.
func clock() time.Time {
	return time.Now() //hpcvet:allow simdeterminism the benchmark measures real elapsed time
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and accumulates what it reports.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string

	metrics map[string]metric
	// env records the run's environment and workload properties; it is
	// printed before the result and written into the trace file.
	env map[string]any
	// layers holds the traced run's span summaries.
	layers map[string]*layerSummary
	spans  []span

	attempted, failed int
	wrong             []string
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records an operation that failed or returned a wrong answer.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.wrong) < 8 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark scenario. setup builds a fresh fixture and
// warms it; measure runs the closed loop for d; finish runs the
// after-run correctness checks; close releases the fixture.
type workload interface {
	setup(b *bench, tr *tracer) error
	measure(b *bench, d time.Duration, tr *tracer) (*phase, error)
	finish(b *bench) error
	close()
	// tailPercentile is the highest percentile with at least ten samples
	// beyond it at this workload's rate.
	tailPercentile() float64
	// layerMetrics derives the per-layer metrics of the traced pass.
	layerMetrics(b *bench)
}

// phase is what one timed loop observed.
type phase struct {
	lat samples // per-operation latency, failures included as +Inf
	// fresh holds the latencies of advice requests no cache could answer
	// because their data is new: each pipeline's first advice, every
	// serve-wide request (each query is new), and serve-live's first
	// advice after each append.
	fresh     samples
	ok        int
	attempted int
	elapsed   time.Duration
	failed    int
	errs      []string
	allocs    uint64 // bytes allocated during the loop
	gcs       uint32 // GC cycles during the loop, forced ones excluded
}

// failure records a failed or wrong operation of the phase.
func (ph *phase) failure(format string, args ...any) {
	ph.failed++
	if len(ph.errs) < 8 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

// count adds a measured phase's operations to the run's totals.
func (b *bench) count(ph *phase) {
	b.attempted += ph.attempted
	b.failed += ph.failed
	for _, e := range ph.errs {
		if len(b.wrong) < 8 {
			b.wrong = append(b.wrong, b.workload+": "+e)
		}
	}
}

var workloads = map[string]func() workload{
	"time-to-advice": func() workload { return &ttaWorkload{} },
	"serve-wide":     func() workload { return &serveWorkload{live: false} },
	"serve-live":     func() workload { return &serveWorkload{live: true} },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: time-to-advice, serve-wide or serve-live")
	seed := fs.Int64("seed", 1, "seed for the fixture and the request stream")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	scratch := fs.String("scratch", filepath.Join(".bench_build", "state"), "directory for all workload state")
	traceOut := fs.String("trace-out", "", "trace file (default <scratch>/../trace-<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of time-to-advice|serve-wide|serve-live, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(filepath.Dir(filepath.Clean(*scratch)), fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
	}
	b := &bench{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		scratch: filepath.Join(*scratch, fmt.Sprintf("%s-%d", *name, os.Getpid())),
		metrics: map[string]metric{}, env: map[string]any{},
	}
	defer os.RemoveAll(b.scratch)
	res, err := execute(b, mk)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	envLine, _ := json.Marshal(map[string]any{"env": b.env})
	fmt.Fprintln(stdout, string(envLine))
	if b.trace {
		if err := writeTrace(*traceOut, b); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, w := range b.wrong {
		fmt.Fprintf(stderr, "perfbench: failed operation: %s\n", w)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// fixtureSetups is how many times an untraced run builds its fixture;
// setup_s is the median, and the last build serves the timed loop.
const fixtureSetups = 3

// execute runs one workload: the untraced pass (fixtureSetups set-ups, one
// timed loop) or the traced pass (one set-up, an untraced then a traced
// loop of half the time each).
func execute(b *bench, mk func() workload) (*result, error) {
	if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		return nil, err
	}
	recordEnv(b)
	d := time.Duration(b.seconds * float64(time.Second))
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	if !b.trace {
		var setupTimes []float64
		for i := 0; i < fixtureSetups; i++ {
			if w != nil {
				w.close()
			}
			// Each set-up starts from a collected heap, so its time does not
			// include collecting the previous fixture's garbage.
			runtime.GC()
			w = mk()
			start := clock()
			if err := w.setup(b, nil); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", b.workload, err)
			}
			setupTimes = append(setupTimes, clock().Sub(start).Seconds())
		}
		steal0 := cpuStat()
		stopRSS := sampleRSS()
		ph, err := w.measure(b, d, nil)
		rss := stopRSS()
		if err != nil {
			return nil, err
		}
		b.env["cpu_steal_share"] = cpuStat().stealShare(steal0)
		b.count(ph)
		if err := w.finish(b); err != nil {
			return nil, err
		}
		sort.Float64s(setupTimes)
		b.set("setup_s", median(setupTimes), "s")
		reportEndToEnd(b, w, ph)
		// Report the 90th percentile of resident memory while serving: the
		// maximum moves with where GC cycles fall among large transient
		// selections, p90 far less.
		sort.Float64s(rss)
		b.set("rss_p90_mb", percentile(rss, 90), "MB")
		b.env["rss_p50_mb"] = median(rss)
		b.env["rss_max_mb"] = rss[len(rss)-1]
	} else {
		w = mk()
		tr := newTracer()
		if err := w.setup(b, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.workload, err)
		}
		plain, err := w.measure(b, d/2, nil)
		if err != nil {
			return nil, err
		}
		traced, err := w.measure(b, d/2, tr)
		if err != nil {
			return nil, err
		}
		b.count(plain)
		b.count(traced)
		if err := w.finish(b); err != nil {
			return nil, err
		}
		b.layers = tr.summarize()
		b.spans = tr.sampleSpans(traceSpansKept)
		w.layerMetrics(b)
		b.set("runtime.alloc_bytes_per_op", float64(plain.allocs)/math.Max(1, float64(plain.attempted)), "B")
		b.set("runtime.gc_cycles", float64(plain.gcs), "count")
		pu, pt := plain.lat.sorted(), traced.lat.sorted()
		b.set("trace.overhead_ms", median(pt)-median(pu), "ms")
		b.set("trace.throughput_ratio", throughput(traced)/math.Max(throughput(plain), 1e-9), "ratio")
		if err := checkLayers(b); err != nil {
			return nil, err
		}
	}
	return &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// reportEndToEnd derives the end-to-end metrics of an untraced loop.
func reportEndToEnd(b *bench, w workload, ph *phase) {
	lat := ph.lat.sorted()
	b.set("throughput_per_s", throughput(ph), "1/s")
	b.set("p50_ms", finite(median(lat), ph), "ms")
	b.set("tail_ms", finite(percentile(lat, w.tailPercentile()), ph), "ms")
	b.set("fresh_ms", finite(median(ph.fresh.sorted()), ph), "ms")
	b.env["latency_ms"] = map[string]float64{
		"p25": percentile(lat, 25), "p50": percentile(lat, 50), "p75": percentile(lat, 75),
		"p90": percentile(lat, 90), "p95": percentile(lat, 95), "p99": percentile(lat, 99),
	}
	b.env["tail_percentile"] = w.tailPercentile()
	b.env["samples"] = len(lat)
	if n := len(lat); n > 0 {
		b.env["samples_beyond_tail"] = n - int(math.Ceil(w.tailPercentile()/100*float64(n)))
	}
}

// throughput is the phase's completed operations per second.
func throughput(ph *phase) float64 {
	if ph.elapsed <= 0 {
		return 0
	}
	return float64(ph.ok) / ph.elapsed.Seconds()
}

// finite maps a latency that includes a failed operation (+Inf) to the
// whole loop's duration: the operation never completed inside the run.
func finite(v float64, ph *phase) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return ph.elapsed.Seconds() * 1e3
	}
	return v
}

// memDelta runs loop and reports the bytes it allocated and the GC cycles
// it caused, forced collections excluded.
func memDelta(loop func()) (allocs uint64, gcs uint32) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc,
		(after.NumGC - before.NumGC) - (after.NumForcedGC - before.NumForcedGC)
}

// rssSampleEvery is how often sampleRSS reads the resident set size.
const rssSampleEvery = 10 * time.Millisecond

// sampleRSS reads the process's resident set size every rssSampleEvery
// until the returned stop function is called; stop returns the samples, in
// MB. Sampling only the measured loop keeps the one-off fixture build out
// of the figure.
func sampleRSS() (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		got := []float64{rssMB()}
		tick := time.NewTicker(rssSampleEvery) //hpcvet:allow simdeterminism samples memory on the wall clock while the benchmark runs
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				got = append(got, rssMB())
			case <-done:
				out <- append(got, rssMB())
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// rssMB reads the process's current resident set size (VmRSS) in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks is the machine-wide CPU time from /proc/stat: all states, and
// the time a hypervisor gave this machine's CPUs to someone else.
type cpuTicks struct{ total, steal uint64 }

func cpuStat() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscanf(f, "%d", &v)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU time stolen by the hypervisor since t0.
func (t cpuTicks) stealShare(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// recordEnv notes the machine and fixture facts that make numbers
// comparable across runs.
func recordEnv(b *bench) {
	b.env["workload"] = b.workload
	b.env["seed"] = b.seed
	b.env["seconds"] = b.seconds
	b.env["trace"] = b.trace
	b.env["nproc"] = runtime.NumCPU()
	b.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.env["go_version"] = runtime.Version()
	b.env["scratch_fs"] = fsType(b.scratch)
	b.env["client_connections"] = clientConns
	b.env["cache_capacities"] = map[string]int{
		"api_body_cache":      512,
		"queryengine_lru":     512,
		"dataset_hot_fronts":  24,
		"queryengine_default": 512,
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}

// traceSpansKept is how many raw spans the trace file keeps, as an example
// of the span tree; the layer summaries cover every span.
const traceSpansKept = 300

// writeTrace writes the traced run's environment, metrics, per-layer
// summaries (sorted by name) and the first recorded spans.
func writeTrace(path string, b *bench) error {
	names := make([]string, 0, len(b.layers))
	for n := range b.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	layers := make([]*layerSummary, 0, len(names))
	for _, n := range names {
		layers = append(layers, b.layers[n])
	}
	data, err := json.MarshalIndent(map[string]any{
		"env":     b.env,
		"metrics": b.metrics,
		"layers":  layers,
		"spans":   b.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := fsatomic.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
