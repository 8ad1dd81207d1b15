package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"hpcadvisor/internal/core"
)

func TestSeedDeterminesInputs(t *testing.T) {
	if !reflect.DeepEqual(newPointGen(7, "syn").take(2000), newPointGen(7, "syn").take(2000)) {
		t.Error("same seed built different fixtures")
	}
	if reflect.DeepEqual(newPointGen(7, "syn").take(2000), newPointGen(8, "syn").take(2000)) {
		t.Error("different seeds built the same fixture")
	}
	if !reflect.DeepEqual(wideQueries(7), wideQueries(7)) || !reflect.DeepEqual(liveOps(7, 5000), liveOps(7, 5000)) {
		t.Error("same seed gave different request streams")
	}
	if reflect.DeepEqual(wideQueries(7), wideQueries(8)) || reflect.DeepEqual(liveOps(7, 5000), liveOps(8, 5000)) {
		t.Error("different seeds gave the same request stream")
	}
	if sweepConfig(7) == sweepConfig(8) {
		t.Error("different seeds gave the same sweep config")
	}
}

func TestWideQueriesAreDistinctAndStratified(t *testing.T) {
	qs := wideQueries(3)
	if len(qs) < 20*512 {
		t.Fatalf("query space %d is under 20x the 512-entry caches", len(qs))
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q] {
			t.Fatalf("query %q repeats", q)
		}
		seen[q] = true
	}
	// Every block of 225 requests carries exactly one unfiltered query.
	for block := 0; block < 10; block++ {
		n := 0
		for _, q := range qs[block*225 : (block+1)*225] {
			if !strings.Contains(q, "app=") && !strings.Contains(q, "sku=") && !strings.Contains(q, "input=") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("block %d has %d unfiltered queries, want 1", block, n)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.5, 100}, {1, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{3, 5}, [3]float64{3, 4, 5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "api.handler", ID: 1, Parent: 0, Start: 10, End: 70},
		{Name: "dataset.snapshot_build", ID: 2, Parent: 1, Start: 20, End: 50},
	}}
	sum := tr.summarize()
	for name, want := range map[string]float64{"request": 0.040, "api.handler": 0.030, "dataset.snapshot_build": 0.030} {
		if got := sum[name].SelfP50; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s self time %v us, want %v", name, got, want)
		}
	}
}

// TestWrongWideBodyMissesTheTail checks that a serve-wide body that differs
// from the reference no longer counts as completed and enters the latency
// distribution as +Inf.
func TestWrongWideBodyMissesTheTail(t *testing.T) {
	adv := core.New("sub")
	for _, p := range newPointGen(1, "t").take(200) {
		adv.Store.Add(p)
	}
	q := "app=lammps&sort=time"
	good, err := referenceAdvice(adv.Store, adv.Store.Generation(), q)
	if err != nil {
		t.Fatal(err)
	}
	w := &serveWorkload{out: &pipelineOut{adv: adv}}
	w.wideSamples = []wideSample{{q, good, 0}, {q, []byte("{}"), 1}}
	ph := &phase{ok: 2, attempted: 2, lat: samples{0.5, 0.7}}
	if err := w.checkWide(ph); err != nil {
		t.Fatal(err)
	}
	if ph.ok != 1 || ph.failed != 1 || ph.lat[0] != 0.5 || !math.IsInf(ph.lat[1], 1) {
		t.Errorf("ok=%d failed=%d lat=%v, want ok=1 failed=1 lat=[0.5 +Inf]", ph.ok, ph.failed, ph.lat)
	}
}

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks the
// harness against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// a well-formed result with no failed operation and exactly the metrics,
// with the units, that BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several 50k-point fixtures")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	if len(want["1"]) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(want["1"]), len(perLayerMetrics))
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				args := []string{"--workload", name, "--seed", "5", "--seconds", "0.6", "--trace", trace,
					"--scratch", t.TempDir(), "--trace-out", t.TempDir() + "/trace.json"}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("exit %d: %s", code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, errs.String())
				}
				for m, unit := range want[trace] {
					if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v, BENCHMARK.json unit %q", m, got, unit)
					}
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want[trace]))
				}
			})
		}
	}
}
