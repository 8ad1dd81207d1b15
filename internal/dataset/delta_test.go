package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// scanRef is the scan oracle over a plain slice in append order: the
// filter's matches, stably sorted into canonical order.
func scanRef(ref []Point, f Filter) []Point {
	c := f.Canonical()
	var out []Point
	for i := range ref {
		if c.Match(&ref[i]) {
			out = append(out, ref[i])
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return pointLess(&out[i], &out[j]) })
	return out
}

// namesRef lists the distinct values one field takes in ref, sorted.
func namesRef(ref []Point, field func(*Point) string) []string {
	seen := map[string]bool{}
	var out []string
	for i := range ref {
		if v := field(&ref[i]); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// mappedColumnar lays pts (append order) out the way a v2 segment persists
// them: the image a compaction writes. A run served over it shares only
// read-only slices with the store that built it.
func mappedColumnar(t testing.TB, pts []Point) *Columnar {
	t.Helper()
	s := NewStore()
	s.AddAll(pts)
	c, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// foldNow folds the store's delta into a new base the way a reader that
// meets the fold rule does, whatever the delta's size.
func foldNow(s *Store) {
	sn := s.Snapshot()
	if sn.delta == nil {
		return
	}
	folded, err := sn.fold()
	s.mu.Lock()
	s.installLocked(folded, err)
	s.mu.Unlock()
}

// deltaPoints draws n appends that stress the merge against base: exact
// (time, cost) ties with base points, points with a base point's sort key,
// apps, SKUs and inputs the base lacks, aliases that differ from base
// aliases only in case, and failed points.
func deltaPoints(rng *rand.Rand, base []Point, n int) []Point {
	out := make([]Point, n)
	for i := range out {
		var p Point
		if len(base) > 0 {
			p = base[rng.Intn(len(base))]
		} else {
			p = randomStore(rng, 1).All()[0]
		}
		p.ScenarioID = fmt.Sprintf("d%04d", i)
		p.ExecTimeSec, p.CostUSD = rng.Float64()*1000, rng.Float64()*10
		switch rng.Intn(8) {
		case 0: // tie: the same time and cost as another base point
			if len(base) > 0 {
				q := base[rng.Intn(len(base))]
				p.ExecTimeSec, p.CostUSD = q.ExecTimeSec, q.CostUSD
			}
		case 1: // keep the base point's sort key (alias, input, nodes)
		case 2:
			p.AppName = "namd"
		case 3:
			p.SKU, p.SKUAlias = "Standard_NP10s", "np10s"
		case 4:
			p.InputDesc = "fresh=1"
		case 5: // alias differs from a base alias only in case
			p.SKUAlias = []string{"HB120rs_v3", "Hc44rs", "hb120RS_v2"}[rng.Intn(3)]
		case 6:
			p.NNodes = 1 << rng.Intn(6)
		}
		p.Failed = rng.Intn(8) == 0
		out[i] = p
	}
	return out
}

// deltaFilters are the filters checked at every generation: random ones
// plus the delta-only values and the case-variant alias.
func deltaFilters(rng *rand.Rand) []Filter {
	fs := []Filter{
		{}, {IncludeFailed: true}, {AppName: "namd"}, {SKU: "np10s"}, {SKU: "Standard_NP10s"},
		{SKU: "HB120RS_V3"}, {SKU: "hc44rs"}, {InputDesc: "fresh=1"}, {InputDesc: "atoms=864M"},
		{AppName: "lammps", MinNodes: 2}, {Tags: map[string]string{"run": "r1"}},
	}
	for i := 0; i < 6; i++ {
		fs = append(fs, randomFilter(rng))
	}
	return fs
}

// hotRef is the hotness rule computed from ref: the unfiltered view, or a
// filter on exactly one of app, SKU (full name or alias) and input, with
// no node bound, tag or IncludeFailed, whose value that field takes in
// ref. App and SKU values compare lowercased.
func hotRef(ref []Point, f Filter) bool {
	if f.IncludeFailed || f.MinNodes > 0 || f.MaxNodes > 0 || len(f.Tags) > 0 {
		return false
	}
	app, sku := strings.ToLower(f.AppName), strings.ToLower(f.SKU)
	var occurs func(p *Point) bool
	fields := 0
	if app != "" {
		fields++
		occurs = func(p *Point) bool { return strings.ToLower(p.AppName) == app }
	}
	if sku != "" {
		fields++
		occurs = func(p *Point) bool { return strings.ToLower(p.SKU) == sku || strings.ToLower(p.SKUAlias) == sku }
	}
	if f.InputDesc != "" {
		fields++
		occurs = func(p *Point) bool { return p.InputDesc == f.InputDesc }
	}
	if fields != 1 {
		return fields == 0
	}
	for i := range ref {
		if occurs(&ref[i]) {
			return true
		}
	}
	return false
}

// checkAgainstRef holds every read of s's current snapshot to the oracles
// over ref, the store's points in append order.
func checkAgainstRef(t *testing.T, s *Store, ref []Point, filters []Filter) {
	t.Helper()
	sn := s.Snapshot()
	if sn.Generation() != uint64(len(ref)) || sn.Len() != len(ref) || s.Len() != len(ref) {
		t.Fatalf("generation %d, Len %d/%d, want %d", sn.Generation(), sn.Len(), s.Len(), len(ref))
	}
	if got := s.All(); !reflect.DeepEqual(got, ref) {
		t.Fatalf("gen %d: All differs from the appended points", len(ref))
	}
	for _, names := range []struct {
		got   []string
		field func(*Point) string
	}{
		{sn.Apps(), func(p *Point) string { return p.AppName }},
		{sn.SKUAliases(), func(p *Point) string { return p.SKUAlias }},
		{sn.Inputs(), func(p *Point) string { return p.InputDesc }},
	} {
		if want := namesRef(ref, names.field); !reflect.DeepEqual(names.got, want) {
			t.Fatalf("gen %d: names %q, want %q", len(ref), names.got, want)
		}
	}
	for _, f := range filters {
		want := scanRef(ref, f)
		if got := sn.Select(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("gen %d %+v: Select diverges from the scan (%d vs %d pts)", len(ref), f, len(got), len(want))
		}
		if got := s.SelectScan(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("gen %d %+v: SelectScan diverges from the reference scan", len(ref), f)
		}
		c := f.Canonical()
		for _, byCost := range []bool{false, true} {
			oracle := naiveAdvice(want, byCost)
			if rows := sn.Advice(&c, byCost); !reflect.DeepEqual(rows, oracle) {
				t.Fatalf("gen %d %+v byCost=%v: Advice diverges from the oracle\n got: %v\nwant: %v",
					len(ref), f, byCost, ids(rows), ids(oracle))
			}
			wantJSON := adviceJSONOracle(t, oracle)
			got, n, err := sn.AdviceJSON(&c, byCost)
			if err != nil || n != len(oracle) || string(got) != string(wantJSON) {
				t.Fatalf("gen %d %+v byCost=%v: AdviceJSON diverges from the oracle (%v)\n got: %s\nwant: %s",
					len(ref), f, byCost, err, got, wantJSON)
			}
			hot, n, ok := sn.HotAdviceJSON(&c, byCost)
			if want := hotRef(ref, f); ok != want {
				t.Fatalf("gen %d %+v byCost=%v: hot=%v, want %v", len(ref), f, byCost, ok, want)
			}
			if ok && (n != len(oracle) || string(hot) != string(wantJSON)) {
				t.Fatalf("gen %d %+v byCost=%v: hot fragment diverges from the oracle", len(ref), f, byCost)
			}
		}
	}
}

// FuzzDeltaSnapshot appends to a seeded base — a heap build and a mapped
// snapshot — and at every generation holds each read of the base + delta
// snapshot to the scan and dominance oracles over a plain slice. One fold
// runs mid-sequence.
func FuzzDeltaSnapshot(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(9))
	f.Add(int64(2), uint8(40), uint8(0))
	f.Add(int64(3), uint8(7), uint8(200))
	f.Add(int64(4), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, appends, foldAt uint8) {
		rng := rand.New(rand.NewSource(seed))
		base := randomStore(rng, 10+rng.Intn(150)).All()
		pts := deltaPoints(rng, base, 1+int(appends)%48)
		filters := deltaFilters(rng)
		for _, mapped := range []bool{false, true} {
			var s *Store
			if mapped {
				var err error
				if s, err = NewMappedStore(mappedColumnar(t, base)); err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewStore()
				s.AddAll(base)
				foldNow(s)
			}
			ref := append([]Point(nil), base...)
			for i, p := range pts {
				s.Add(p)
				ref = append(ref, p)
				if i == int(foldAt)%len(pts) {
					foldNow(s)
				}
				checkAgainstRef(t, s, ref, filters)
			}
			if mapped {
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				for i := range ref {
					if err := enc.Encode(&ref[i]); err != nil {
						t.Fatal(err)
					}
				}
				if got, err := s.Marshal(); err != nil || !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("Marshal after appends and a fold differs from the points in append order (%v)", err)
				}
			}
		}
	})
}

// An exact (time, cost) tie between a base and a delta point goes to the
// one earlier in canonical order, whichever half holds it: the merged
// sweep breaks ties by merge rank, not by half.
func TestDeltaFrontTieBreak(t *testing.T) {
	mk := func(id, alias string, n int, t, c float64) Point {
		return Point{ScenarioID: id, AppName: "lammps", SKU: "Standard_" + alias, SKUAlias: alias, NNodes: n, ExecTimeSec: t, CostUSD: c}
	}
	base := []Point{mk("base-m", "mm", 1, 100, 5), mk("cheap", "mm", 2, 200, 1), mk("fast", "mm", 4, 50, 9)}
	for _, tc := range []struct {
		delta  Point
		winner string
	}{
		{mk("delta-a", "aa", 1, 100, 5), "delta-a"}, // sorts before base-m
		{mk("delta-z", "zz", 1, 100, 5), "base-m"},  // sorts after it
		{mk("delta-m", "mm", 1, 100, 5), "base-m"},  // same key: the base was appended first
	} {
		for _, mapped := range []bool{false, true} {
			s := NewStore()
			if mapped {
				var err error
				if s, err = NewMappedStore(mappedColumnar(t, base)); err != nil {
					t.Fatal(err)
				}
			} else {
				s.AddAll(base)
				foldNow(s)
			}
			s.Add(tc.delta)
			ref := append(append([]Point(nil), base...), tc.delta)
			checkAgainstRef(t, s, ref, []Filter{{}, {AppName: "lammps"}, {MaxNodes: 2}})
			c := Filter{}.Canonical()
			if rows := s.Snapshot().Advice(&c, false); len(rows) != 3 || rows[1].ScenarioID != tc.winner {
				t.Errorf("mapped=%v: tie between base-m and %s kept %v, want %s", mapped, tc.delta.ScenarioID, ids(rows), tc.winner)
			}
		}
	}
}

// Appends, queries and a fold off the lock interleave: one appender adds
// a fixed sequence, readers pin snapshots and query them while the delta
// crosses the fold rule, and every answer must equal the oracle at the
// reader's pinned generation. Run with -race.
func TestDeltaFoldRacesAppendsAndQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	all := randomStore(rng, 2000).All()
	all = append(all, deltaPoints(rng, all, foldMinDelta+400)...)
	s := NewStore()
	s.AddAll(all[:2000])
	base := s.Snapshot()
	if base.delta != nil {
		t.Fatal("a 2000-point store must fold its first base synchronously")
	}

	filters := []Filter{{AppName: "wrf", SKU: "hc44rs"}, {SKU: "np10s"}, {InputDesc: "fresh=1", MinNodes: 2}}
	var (
		wg      sync.WaitGroup
		queries atomic.Int64 // checked answers, so the appender can wait for readers
		failed  atomic.Bool
	)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, p := range all[2000:] {
			s.Add(p)
			if i%32 == 31 { // let at least one answer land between batches
				for seen := queries.Load(); queries.Load() == seen && !failed.Load(); {
					runtime.Gosched()
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-done:
					return
				default:
				}
				sn := s.Snapshot()
				ref := all[:sn.Generation()]
				f := filters[(q+r)%len(filters)]
				if got, want := sn.Select(f), scanRef(ref, f); !reflect.DeepEqual(got, want) {
					t.Errorf("gen %d %+v: Select diverges from the oracle", len(ref), f)
					failed.Store(true)
					return
				}
				c := f.Canonical()
				want := adviceJSONOracle(t, naiveAdvice(scanRef(ref, f), q%2 == 1))
				if got, _, err := sn.AdviceJSON(&c, q%2 == 1); err != nil || string(got) != string(want) {
					t.Errorf("gen %d %+v: AdviceJSON diverges from the oracle (%v)", len(ref), f, err)
					failed.Store(true)
					return
				}
				queries.Add(1)
			}
		}(r)
	}
	wg.Wait()
	final := s.Snapshot()
	s.mu.RLock()
	folded := s.base != base.base
	s.mu.RUnlock()
	if !folded {
		t.Fatal("the delta crossed the fold rule but no fold was installed")
	}
	checkAgainstRef(t, s, all, filters)
	if final.Generation() != uint64(len(all)) {
		t.Fatalf("final generation %d, want %d", final.Generation(), len(all))
	}
}

// On a mapped store, neither an append nor a WAL tail loaded over the base
// decodes a base row: the roll ranks each delta point against the base by
// decoding only the probed rows' sort keys, and hot advice splices base
// survivors from the row bytes. So Snapshot plus hot AdviceJSON leave every
// base chunk undecoded — the survivors' too.
func TestAppendToMappedStoreDecodesNoBaseRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomStore(rng, 5000).All()
	tail := deltaPoints(rng, base, 3)
	hot := []Filter{{}, {AppName: "lammps"}, {SKU: "hc44rs"}, {SKU: tail[0].SKUAlias}, {InputDesc: "atoms=864M"}}
	for _, tc := range []struct {
		name  string
		added []Point
		load  func(*Store)
	}{
		{"Add", tail[:1], func(s *Store) { s.Snapshot(); s.Add(tail[0]) }},
		{"WAL tail", tail, func(s *Store) { s.AddAll(tail) }}, // SegmentStore.Load's order
	} {
		s, err := NewMappedStore(mappedColumnar(t, base))
		if err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		mapped := s.base
		s.mu.RUnlock()
		if len(mapped.lazy.chunks) < 3 {
			t.Fatalf("%d chunks: too few for the decode check to mean anything", len(mapped.lazy.chunks))
		}
		tc.load(s)
		sn := s.Snapshot()
		if sn.delta == nil || sn.base != mapped {
			t.Fatalf("%s: the snapshot is not a delta over the mapped base", tc.name)
		}
		ref := append(append([]Point(nil), base...), tc.added...)
		for _, f := range hot {
			c := f.Canonical()
			for _, byCost := range []bool{false, true} {
				got, _, ok := sn.HotAdviceJSON(&c, byCost)
				if want := adviceJSONOracle(t, naiveAdvice(scanRef(ref, f), byCost)); !ok || string(got) != string(want) {
					t.Fatalf("%s %+v byCost=%v: hot advice diverges from the oracle (hot=%v)", tc.name, f, byCost, ok)
				}
			}
		}
		for c, decoded := range decodedChunks(mapped) {
			if decoded {
				t.Fatalf("%s: Snapshot plus hot advice decoded base chunk %d", tc.name, c)
			}
		}
	}
}

// A generation roll copies no point: the delta run reads the store's
// appended points through its append indexes. So one Add plus Snapshot
// over a mapped base with a 2,000-point delta allocates fewer bytes than
// the delta's points occupy as structs.
func TestRollCopiesNoPoint(t *testing.T) {
	const nb, nd = 40_000, 2_000 // below the fold rule: nd*foldRatio < nb
	rng := rand.New(rand.NewSource(11))
	base := randomStore(rng, nb).All()
	tail := deltaPoints(rng, base, nd)
	s, err := NewMappedStore(mappedColumnar(t, base))
	if err != nil {
		t.Fatal(err)
	}
	s.AddAll(tail[:nd-1])
	s.Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Add(tail[nd-1])
	sn := s.Snapshot()
	runtime.ReadMemStats(&after)
	if sn.delta.len() != nd {
		t.Fatalf("the roll serves a %d-point delta, want %d", sn.delta.len(), nd)
	}
	structs := uint64(nd) * uint64(unsafe.Sizeof(Point{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= structs {
		t.Fatalf("one Add + Snapshot over a %d-point delta allocated %d bytes, want below the %d its points occupy as structs", nd, got, structs)
	}
}

// A fold over a mapped base decodes no base row: the merge splices the
// base's row bytes and column cells, and the new base holds no row as a
// struct, the delta's included. Hot advice after the fold still equals
// the oracle, spliced from the new image's row bytes, and still decodes
// nothing.
func TestFoldOverMappedBaseDecodesNoBaseRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomStore(rng, 5000).All()
	tail := deltaPoints(rng, base, foldMinDelta) // past the rule: 5000/foldRatio < foldMinDelta
	s, err := NewMappedStore(mappedColumnar(t, base))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	mapped := s.base
	s.mu.RUnlock()
	s.AddAll(tail)
	s.Snapshot() // meets the fold rule; the fold runs in this call
	s.mu.RLock()
	folded := s.base
	s.mu.RUnlock()
	if folded == mapped || folded.len() != len(base)+len(tail) {
		t.Fatal("the delta met the fold rule but no fold was installed")
	}
	for c, decoded := range decodedChunks(mapped) {
		if decoded {
			t.Fatalf("the fold decoded chunk %d of the mapped base", c)
		}
	}
	// undecoded reports the first row the new base holds as a struct, or
	// -1.
	undecoded := func() int {
		for i := range folded.rows {
			if folded.lazy.known(i) || folded.rows[folded.col.AppendIdx[i]].ScenarioID != "" {
				return i
			}
		}
		return -1
	}
	if i := undecoded(); i >= 0 {
		t.Fatalf("after the fold, base row %d of the new base is decoded", i)
	}
	sn := s.Snapshot()
	if sn.delta != nil || sn.base != folded {
		t.Fatal("the snapshot after the fold is not the folded base")
	}
	ref := append(append([]Point(nil), base...), tail...)
	for _, f := range []Filter{{}, {AppName: "lammps"}, {SKU: "hc44rs"}, {SKU: "np10s"}, {InputDesc: "fresh=1"}} {
		c := f.Canonical()
		for _, byCost := range []bool{false, true} {
			got, _, ok := sn.HotAdviceJSON(&c, byCost)
			if want := adviceJSONOracle(t, naiveAdvice(scanRef(ref, f), byCost)); !ok || string(got) != string(want) {
				t.Fatalf("%+v byCost=%v: hot advice after the fold diverges from the oracle (hot=%v)", f, byCost, ok)
			}
		}
	}
	if i := undecoded(); i >= 0 {
		t.Fatalf("hot advice after the fold decoded row %d", i)
	}
}

// A point whose row cannot marshal (a NaN metric) cannot join an image, so
// a store whose delta holds one keeps serving base plus delta past the
// fold rule. Every query still matches the scan oracle; advice whose front
// holds the point is an error while other filters serve; and no later roll
// retries the fold.
func TestUnmarshalablePointStaysInTheDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ref := randomStore(rng, 2000).All()
	s := NewStore()
	s.AddAll(ref)
	s.Snapshot() // the first base
	bad := ref[0]
	// Last in the delta's canonical order, so a merge marshals every other
	// delta row before it fails; first on every front it matches.
	bad.ScenarioID, bad.SKU, bad.SKUAlias = "nan-metric", "Standard_ZZ1", "zz1"
	bad.Failed, bad.ExecTimeSec, bad.CostUSD = false, 1e-3, 1e-3
	bad.Utilization.CPUUtil = math.NaN()
	s.Add(bad)
	ref = append(ref, bad)
	for _, p := range deltaPoints(rng, ref[:2000], foldMinDelta) {
		s.Add(p)
		ref = append(ref, p)
	}
	s.mu.RLock()
	base := s.base
	s.mu.RUnlock()
	sn := s.Snapshot() // meets the fold rule; the fold fails
	s.mu.RLock()
	foldErr := s.foldErr
	s.mu.RUnlock()
	if foldErr == nil || sn.delta == nil {
		t.Fatalf("fold error %v, delta %v: the fold of an unmarshalable point must fail and keep the delta", foldErr, sn.delta != nil)
	}

	// fmt renders NaN as itself, so rows compare by their printed form.
	same := func(a, b []Point) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
	filters := append(deltaFilters(rng), Filter{SKU: "zz1"}, Filter{AppName: bad.AppName}, Filter{AppName: "wrf"})
	served, failed := 0, 0
	for _, f := range filters {
		want := scanRef(ref, f)
		if got := sn.Select(f); !same(got, want) {
			t.Fatalf("%+v: Select diverges from the scan (%d vs %d pts)", f, len(got), len(want))
		}
		c := f.Canonical()
		for _, byCost := range []bool{false, true} {
			oracle := naiveAdvice(want, byCost)
			if rows := sn.Advice(&c, byCost); !same(rows, oracle) {
				t.Fatalf("%+v byCost=%v: Advice diverges from the oracle", f, byCost)
			}
			got, _, err := sn.AdviceJSON(&c, byCost)
			if slices.Contains(ids(oracle), bad.ScenarioID) {
				if err == nil {
					t.Fatalf("%+v byCost=%v: advice holding the NaN point encoded without an error", f, byCost)
				}
				failed++
				continue
			}
			if err != nil || string(got) != string(adviceJSONOracle(t, oracle)) {
				t.Fatalf("%+v byCost=%v: AdviceJSON diverges from the oracle (%v)", f, byCost, err)
			}
			served++
		}
	}
	if served == 0 || failed == 0 {
		t.Fatalf("%d fronts served and %d failed: the check needs both", served, failed)
	}

	// A retried merge would marshal every delta row before reaching the
	// NaN point; a roll allocates a few dozen slices.
	late := ref[len(ref)-1]
	if allocs := testing.AllocsPerRun(5, func() {
		s.Add(late)
		s.Snapshot()
	}); allocs >= foldMinDelta/2 {
		t.Fatalf("a roll past a failed fold allocates %.0f times: it retried the fold", allocs)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.base != base || s.foldErr != foldErr {
		t.Fatal("a later roll replaced the base or the fold error")
	}
}
