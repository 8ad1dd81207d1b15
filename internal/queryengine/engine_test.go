package queryengine

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
)

func fixtureStore(n int) *dataset.Store {
	s := dataset.NewStore()
	for i := 0; i < n; i++ {
		s.Add(dataset.Point{
			ScenarioID:  fmt.Sprintf("s%03d", i),
			AppName:     []string{"lammps", "openfoam"}[i%2],
			SKU:         "Standard_HB120rs_v3",
			SKUAlias:    "hb120rs_v3",
			NNodes:      1 + i%16,
			PPN:         120,
			InputDesc:   "atoms=864M",
			ExecTimeSec: float64(1000 - i),
			CostUSD:     float64(i%7) + 0.25,
		})
	}
	return s
}

func TestCacheHitOnRepeatAndInvalidationOnGenerationBump(t *testing.T) {
	store := fixtureStore(50)
	e := New(store)
	f := dataset.Filter{AppName: "lammps"}

	first := e.AdviceTable(e.Snapshot(), f, pareto.ByTime)
	// A cold table is two misses: the table entry plus the memoized front
	// it layers on.
	if got := e.Stats(); got.Misses != 2 || got.Hits != 0 {
		t.Fatalf("cold query: stats = %+v", got)
	}
	if second := e.AdviceTable(e.Snapshot(), f, pareto.ByTime); second != first {
		t.Fatal("repeated query changed output")
	}
	if got := e.Stats(); got.Hits != 1 {
		t.Fatalf("warm query did not hit: stats = %+v", got)
	}
	// A filter differing only in case folds to the same key, and Advice
	// reuses the front the cold AdviceTable already computed.
	e.AdviceTable(e.Snapshot(), dataset.Filter{AppName: "LAMMPS"}, pareto.ByTime)
	e.Advice(e.Snapshot(), f, pareto.ByTime)
	if got := e.Stats(); got.Hits != 3 || got.Misses != 2 {
		t.Fatalf("case-folded/layered queries missed: stats = %+v", got)
	}

	// Appending bumps the generation: the old entry is dead, the new result
	// reflects the new point.
	fast := dataset.Point{
		ScenarioID: "speedster", AppName: "lammps",
		SKU: "Standard_HB120rs_v3", SKUAlias: "hb120rs_v3",
		NNodes: 32, ExecTimeSec: 1, CostUSD: 0.01,
	}
	store.Add(fast)
	after := e.AdviceTable(e.Snapshot(), f, pareto.ByTime)
	if after == first {
		t.Fatal("generation bump did not invalidate the cached advice")
	}
	rows := e.Advice(e.Snapshot(), f, pareto.ByTime)
	if len(rows) == 0 || rows[0].ScenarioID != "speedster" {
		t.Fatalf("post-append advice does not lead with the new optimum: %+v", rows)
	}
}

func TestAdviceReturnsDefensiveCopy(t *testing.T) {
	e := New(fixtureStore(20))
	f := dataset.Filter{AppName: "lammps"}
	rows := e.Advice(e.Snapshot(), f, pareto.ByTime)
	if len(rows) == 0 {
		t.Fatal("no advice")
	}
	rows[0].CostUSD = -1
	again := e.Advice(e.Snapshot(), f, pareto.ByTime)
	if again[0].CostUSD == -1 {
		t.Fatal("caller mutation leaked into the cache")
	}
}

func TestSingleFlightCollapsesThunderingHerd(t *testing.T) {
	store := fixtureStore(200)
	e := New(store)
	f := dataset.Filter{AppName: "openfoam"}

	var computes int32
	release := make(chan struct{})
	testHookCompute = func() {
		atomic.AddInt32(&computes, 1)
		<-release
	}
	defer func() { testHookCompute = nil }()

	const herd = 50
	var wg sync.WaitGroup
	results := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.AdviceTable(e.Snapshot(), f, pareto.ByTime)
		}(i)
	}
	// Let the herd arrive while the first computation is held open, then
	// release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	// One herd-wide computation of the table key plus its one nested front
	// computation — independent of herd size.
	if n := atomic.LoadInt32(&computes); n != 2 {
		t.Fatalf("herd of %d computed %d times, want 2 (table + nested front)", herd, n)
	}
	for i := 1; i < herd; i++ {
		if results[i] != results[0] {
			t.Fatal("herd members saw different results")
		}
	}
}

// TestGenerationMemoBound: one generation's memo stores at most
// maxGenEntries results; a query past the cap is answered (recomputed)
// and not stored, and nothing is evicted within a generation.
func TestGenerationMemoBound(t *testing.T) {
	store := fixtureStore(50)
	e := New(store)
	sn := e.Snapshot()
	for n := 1; n <= maxGenEntries+10; n++ {
		e.Advice(sn, dataset.Filter{MinNodes: n}, pareto.ByTime)
	}
	if got := e.Len(); got != maxGenEntries {
		t.Fatalf("memo holds %d entries, bound is %d", got, maxGenEntries)
	}
	if st := e.Stats(); st.Evictions != 0 {
		t.Errorf("evictions within one generation = %d, want 0", st.Evictions)
	}
	// A key past the cap still answers correctly, and again misses.
	f := dataset.Filter{MinNodes: maxGenEntries + 10}
	before := e.Stats().Misses
	want := pareto.Advice(store.SelectScan(dataset.Filter{MinNodes: 1}), pareto.ByTime)
	if got := e.Advice(sn, dataset.Filter{MinNodes: 1}, pareto.ByTime); !reflect.DeepEqual(got, want) {
		t.Fatal("stored query diverges from the scan path")
	}
	if got := e.Advice(sn, f, pareto.ByTime); len(got) != 0 {
		t.Fatalf("uncapped query returned %d rows, want none", len(got))
	}
	if got := e.Stats().Misses - before; got != 1 {
		t.Errorf("query past the cap: %d misses, want 1 (not stored)", got)
	}
}

// TestGenerationRollDropsOlderEntries: the first query at a newer
// generation drops every entry of the older one — Len counts only the new
// generation and Evictions the dropped entries — and a query still pinned
// to the older snapshot is answered at its own generation but not stored.
func TestGenerationRollDropsOlderEntries(t *testing.T) {
	store := fixtureStore(50)
	e := New(store)
	f := dataset.Filter{AppName: "lammps"}
	old := e.Snapshot()
	wantOld := pareto.Advice(store.SelectScan(f), pareto.ByTime)
	e.Advice(old, f, pareto.ByTime)
	e.AdviceTable(old, f, pareto.ByCost) // table + its front
	e.PlotSet(old, f)
	if got := e.Len(); got != 4 {
		t.Fatalf("memo holds %d entries before the roll, want 4", got)
	}

	store.Add(dataset.Point{ScenarioID: "roll", AppName: "lammps", SKU: "Standard_HB120rs_v3",
		SKUAlias: "hb120rs_v3", NNodes: 32, ExecTimeSec: 1, CostUSD: 0.01})
	live := e.Snapshot()
	e.Advice(live, f, pareto.ByTime)
	if got := e.Len(); got != 1 {
		t.Fatalf("memo holds %d entries after the roll, want only the new generation's 1", got)
	}
	if st := e.Stats(); st.Evictions != 4 {
		t.Errorf("evictions = %d, want the 4 entries of the old generation", st.Evictions)
	}

	before := e.Stats()
	for i := 0; i < 2; i++ {
		if got := e.Advice(old, f, pareto.ByTime); !reflect.DeepEqual(got, wantOld) {
			t.Fatalf("advice at the old pin diverges from the pinned scan (%d vs %d rows)", len(got), len(wantOld))
		}
	}
	if got := e.Len(); got != 1 {
		t.Errorf("a query at the old pin was stored: memo holds %d entries", got)
	}
	if st := e.Stats(); st.Misses-before.Misses != 2 || st.Hits != before.Hits {
		t.Errorf("old-pin queries: stats %+v -> %+v, want two uncached misses", before, st)
	}
}

func TestConcurrentQueriesVsAppends(t *testing.T) {
	// Run with -race: readers on every engine surface while a writer
	// appends. No locks are shared between them beyond the store's own.
	store := fixtureStore(100)
	e := New(store)
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
			store.Add(dataset.Point{
				ScenarioID: fmt.Sprintf("live%d", i), AppName: "lammps",
				SKU: "Standard_HC44rs", SKUAlias: "hc44rs", NNodes: 1 + i%8,
				ExecTimeSec: float64(i + 1), CostUSD: 1,
			})
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f := dataset.Filter{AppName: "lammps"}
			for i := 0; i < 100; i++ {
				sn := e.Snapshot()
				_ = e.Advice(sn, f, pareto.ByCost)
				_ = e.AdviceTable(sn, f, pareto.ByTime)
				_ = e.PlotSet(sn, f)
				if _, err := e.SVG(sn, "speedup", f); err != nil {
					panic(err)
				}
			}
		}(r)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestSVGUnknownName(t *testing.T) {
	e := New(fixtureStore(5))
	if _, err := e.SVG(e.Snapshot(), "nonsense", dataset.Filter{}); err == nil {
		t.Fatal("unknown plot name must error")
	}
}
