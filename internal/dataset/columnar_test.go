package dataset

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// naiveAdvice is an independent O(n^2) advice oracle (the FrontNaive
// pattern, reimplemented here because dataset cannot import pareto):
// dominance scan with exact duplicates resolved to the first occurrence,
// then a stable presentation sort. Both the columnar hot fronts and
// pareto.Advice(SelectScan(f)) must match it byte for byte; the
// cross-package half of that triangle runs in queryengine's equivalence
// suite.
func naiveAdvice(points []Point, byCost bool) []Point {
	var ok []Point
	for _, p := range points {
		if !p.Failed {
			ok = append(ok, p)
		}
	}
	var front []Point
	for i, p := range ok {
		dominated := false
		for j, q := range ok {
			if i == j {
				continue
			}
			if q.ExecTimeSec <= p.ExecTimeSec && q.CostUSD <= p.CostUSD &&
				(q.ExecTimeSec < p.ExecTimeSec || q.CostUSD < p.CostUSD) {
				dominated = true
				break
			}
			if q.ExecTimeSec == p.ExecTimeSec && q.CostUSD == p.CostUSD && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	if byCost {
		sort.SliceStable(front, func(i, j int) bool { return front[i].CostUSD < front[j].CostUSD })
	} else {
		sort.SliceStable(front, func(i, j int) bool { return front[i].ExecTimeSec < front[j].ExecTimeSec })
	}
	return front
}

// hotCandidateFilters enumerates hot filters the snapshot memoizes:
// unfiltered plus each single app/alias/input.
func hotCandidateFilters(sn *Snapshot) []Filter {
	filters := []Filter{{}}
	for _, app := range sn.Apps() {
		filters = append(filters, Filter{AppName: app})
	}
	for _, alias := range sn.SKUAliases() {
		filters = append(filters, Filter{SKU: alias})
	}
	for _, in := range sn.Inputs() {
		if in != "" {
			filters = append(filters, Filter{InputDesc: in})
		}
	}
	return filters
}

// The columnar Select must agree with the scan baseline on the non-indexed
// corners the property test only hits probabilistically: tag-only filters,
// IncludeFailed, node bounds alone, alias vs full-SKU spelling, absent
// symbols, the empty filter, and non-ASCII case, where strings.EqualFold
// and the lowercased index keys disagree ("ſ" folds to "s" and final "ς"
// to "σ", but neither lowercases to it).
func TestColumnarSelectCorners(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(7)), 400)
	s.Add(Point{ScenarioID: "greek", AppName: "ΟΔΟΣ", SKU: "Standard_HBΣ", SKUAlias: "hbσ",
		NNodes: 2, ExecTimeSec: 10, CostUSD: 1})
	s.Add(Point{ScenarioID: "long-s", AppName: "ſwift", SKU: "Standard_HC44rs", SKUAlias: "hc44rs",
		NNodes: 4, ExecTimeSec: 20, CostUSD: 2})
	corners := []Filter{
		{},
		{IncludeFailed: true},
		{Tags: map[string]string{"run": "r1"}},
		{Tags: map[string]string{"run": "r1"}, IncludeFailed: true},
		{Tags: map[string]string{"run": "nosuch"}},
		{MinNodes: 2, MaxNodes: 8},
		{MinNodes: 16},
		{MaxNodes: 1},
		{SKU: "Standard_HB120rs_v3"},           // full SKU name
		{SKU: "hb120rs_v3"},                    // alias
		{SKU: "STANDARD_HB120RS_V3"},           // full name, folded
		{AppName: "GROMACS", SKU: "hc44rs"},    // two indexed fields
		{AppName: "nosuchapp"},                 // absent symbol
		{InputDesc: "atoms=864m"},              // inputs are case-sensitive: no match
		{InputDesc: "atoms=864M", MinNodes: 4}, // indexed + residual
		{AppName: "lammps", SKU: "hb120rs_v3", InputDesc: "cells=8M", MinNodes: 2, MaxNodes: 16,
			Tags: map[string]string{"run": "r0"}, IncludeFailed: true},
		{AppName: "ΟΔΟΣ"},                 // lowercases to the stored key
		{AppName: "οδος"},                 // final sigma: folds, does not lowercase
		{AppName: "ſwift"},                // exact
		{AppName: "swift"},                // long s: folds, does not lowercase
		{SKU: "STANDARD_HBΣ"},             // full name, lowercased
		{SKU: "hbς"},                      // alias, final sigma
		{SKU: "ſtandard_hc44rs"},          // full name, long s
		{AppName: "ſwift", SKU: "HC44RS"}, // non-ASCII app + folded alias
	}
	for i, f := range corners {
		got, want := s.Select(f), s.SelectScan(f)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("corner %d (%+v): columnar Select diverges from scan (%d vs %d pts)", i, f, len(got), len(want))
		}
	}
}

// Every hot front must match the independent dominance oracle
// applied to the scan baseline, in both presentation orders, and the
// serialized rows must be byte-identical to encoding/json over the
// same rows.
func TestHotFrontMatchesNaiveOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := randomStore(rand.New(rand.NewSource(seed)), 300)
		sn := s.Snapshot()
		hot := 0
		for _, f := range hotCandidateFilters(sn) {
			c := f.Canonical()
			for _, byCost := range []bool{false, true} {
				if _, _, ok := sn.HotAdviceJSON(&c, byCost); !ok {
					continue
				}
				rows := sn.Advice(&c, byCost)
				hot++
				want := naiveAdvice(s.SelectScan(f), byCost)
				if !reflect.DeepEqual(rows, want) {
					t.Fatalf("seed %d filter %+v byCost=%v: hot front diverges from oracle (%d vs %d rows)",
						seed, f, byCost, len(rows), len(want))
				}
				frag, count, ok := sn.HotAdviceJSON(&c, byCost)
				if !ok || count != len(rows) {
					t.Fatalf("seed %d filter %+v: HotAdviceJSON ok=%v count=%d, want %d rows", seed, f, ok, count, len(rows))
				}
				marshalable := rows
				if marshalable == nil {
					marshalable = []Point{}
				}
				wantJSON, err := json.Marshal(marshalable)
				if err != nil {
					t.Fatal(err)
				}
				if string(frag) != string(wantJSON) {
					t.Fatalf("seed %d filter %+v: pre-serialized rows differ from json.Marshal\n got: %s\nwant: %s",
						seed, f, frag, wantJSON)
				}
			}
		}
		if hot == 0 {
			t.Fatalf("seed %d: no hot fronts at all", seed)
		}
		// Multi-field filters are never hot: the engine must fall back.
		c := (Filter{AppName: "lammps", SKU: "hb120rs_v3"}).Canonical()
		if _, _, ok := sn.HotAdviceJSON(&c, false); ok {
			t.Error("two-field filter is unexpectedly hot")
		}
	}
}

// Exact (time, cost) duplicates across different SKUs pin the stable
// tie-break: the first point in canonical select order wins, matching the
// oracle's first-occurrence rule. This is the case an unstable sort is
// free to get wrong.
func TestHotFrontDuplicateTieBreak(t *testing.T) {
	s := NewStore()
	mk := func(id, alias string, n int, t, c float64) Point {
		return Point{ScenarioID: id, AppName: "lammps", SKU: "Standard_" + alias, SKUAlias: alias, NNodes: n, ExecTimeSec: t, CostUSD: c}
	}
	// zz sorts after aa canonically but is appended first; identical
	// metrics mean only the tie-break decides which survives.
	s.Add(mk("dup-z", "zz", 1, 100, 5))
	s.Add(mk("dup-a", "aa", 1, 100, 5))
	s.Add(mk("cheap", "aa", 2, 200, 1))
	s.Add(mk("fast", "zz", 2, 50, 9))
	sn := s.Snapshot()
	c := (Filter{}).Canonical()
	for _, byCost := range []bool{false, true} {
		if _, _, ok := sn.HotAdviceJSON(&c, byCost); !ok {
			t.Fatal("empty filter must be hot")
		}
		rows := sn.Advice(&c, byCost)
		want := naiveAdvice(s.SelectScan(Filter{}), byCost)
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("byCost=%v: duplicate tie-break diverges from oracle\n got: %v\nwant: %v",
				byCost, ids(rows), ids(want))
		}
		for _, r := range rows {
			if r.ScenarioID == "dup-z" {
				t.Error("tie-break kept the later point in canonical order")
			}
		}
	}
}

func ids(rows []Point) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.ScenarioID
	}
	return out
}

// Hot fronts compute on first use at every generation; after each
// one-point append the rebuilt snapshot's front must serve the same rows
// as the oracle.
func TestHotFrontLazyAfterAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomStore(rng, 200)
	f := Filter{AppName: "lammps"}
	for i := 0; i < 5; i++ {
		p := randomStore(rand.New(rand.NewSource(int64(100+i))), 1).All()[0]
		p.ScenarioID = fmt.Sprintf("late-%d", i)
		s.Add(p)
		sn := s.Snapshot()
		c := f.Canonical()
		if _, _, ok := sn.HotAdviceJSON(&c, false); !ok {
			t.Fatalf("append %d: per-app filter must stay hot", i)
		}
		rows := sn.Advice(&c, false)
		if want := naiveAdvice(s.SelectScan(f), false); !reflect.DeepEqual(rows, want) {
			t.Fatalf("append %d: lazily computed front diverges from oracle", i)
		}
	}
}

// Every unfiltered or single-field filter is hot on both constructors —
// each app, SKU alias, SKU full name and input, in any case — and answers
// with the oracle's bytes; a filter with a second field, a node bound, a
// tag, IncludeFailed, an unknown symbol or another field's value is not
// hot. Both constructors list the same names for the same points.
func TestHotSlotCoverage(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(17)), 600)
	heap, mapped := s.Snapshot(), mappedSnapshot(t, s)
	for _, names := range []func(*Snapshot) []string{(*Snapshot).Apps, (*Snapshot).SKUAliases, (*Snapshot).Inputs} {
		if h, m := names(heap), names(mapped); !reflect.DeepEqual(h, m) {
			t.Fatalf("heap and mapped snapshots list different names: %q vs %q", h, m)
		}
	}
	hot := hotCandidateFilters(heap)
	fullNames := map[string]bool{}
	for _, p := range s.All() {
		if !fullNames[p.SKU] {
			fullNames[p.SKU] = true
			hot = append(hot, Filter{SKU: p.SKU}, Filter{SKU: strings.ToUpper(p.SKU)})
		}
	}
	hot = append(hot, Filter{AppName: "LAMMPS"}, Filter{MinNodes: -1})
	cold := []Filter{
		{AppName: "lammps", SKU: "hb120rs_v3"},
		{SKU: "Standard_HC44rs", InputDesc: "cells=8M"},
		{AppName: "wrf", MinNodes: 2},
		{MaxNodes: 4},
		{InputDesc: "atoms=864M", Tags: map[string]string{"run": "r1"}},
		{Tags: map[string]string{"run": "r0"}},
		{AppName: "gromacs", IncludeFailed: true},
		{IncludeFailed: true},
		{AppName: "nosuchapp"},
		{SKU: "nosuchsku"},
		{InputDesc: "LAMMPS"}, // not a symbol: app symbols are lowercased
		{InputDesc: "lammps"}, // an app symbol, not an input
	}
	for _, sn := range []*Snapshot{heap, mapped} {
		for _, tc := range []struct {
			filters []Filter
			hot     bool
		}{{hot, true}, {cold, false}} {
			for _, f := range tc.filters {
				c := f.Canonical()
				for _, byCost := range []bool{false, true} {
					want := adviceJSONOracle(t, naiveAdvice(s.SelectScan(f), byCost))
					frag, _, ok := sn.HotAdviceJSON(&c, byCost)
					if ok != tc.hot {
						t.Fatalf("%+v mapped=%v: hot=%v, want %v", f, sn.base.lazy != nil, ok, tc.hot)
					}
					if !ok {
						frag, _, _ = sn.AdviceJSON(&c, byCost)
					}
					if string(frag) != string(want) {
						t.Fatalf("%+v mapped=%v byCost=%v: advice diverges from json.Marshal of the oracle\n got: %s\nwant: %s",
							f, sn.base.lazy != nil, byCost, frag, want)
					}
				}
			}
		}
	}
}

// sortByTimeCost must order positions exactly like sort.SliceStable with
// the same keys — including ties, which the merge must resolve to input
// order.
func TestSortByTimeCostStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		exec := make([]float64, n)
		cost := make([]float64, n)
		for i := range exec {
			exec[i] = float64(rng.Intn(5)) // heavy duplication forces tie-breaks
			cost[i] = float64(rng.Intn(3))
		}
		idx := make([]int32, n)
		want := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
			want[i] = int32(i)
		}
		sortByTimeCost(idx, exec, cost)
		sort.SliceStable(want, func(a, b int) bool {
			if exec[want[a]] != exec[want[b]] {
				return exec[want[a]] < exec[want[b]]
			}
			return cost[want[a]] < cost[want[b]]
		})
		if !reflect.DeepEqual(idx, want) {
			t.Fatalf("trial %d: merge sort diverges from SliceStable\n got: %v\nwant: %v", trial, idx, want)
		}
	}
}

// mappedSnapshot builds the snapshot a v2 segment load serves for the
// store's points (see mappedColumnar). Every row starts undecoded.
func mappedSnapshot(t testing.TB, s *Store) *Snapshot {
	t.Helper()
	sn, err := newMappedSnapshot(mappedColumnar(t, s.All()))
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// decodedChunks reports, per lazy chunk of a mapped run, whether any
// of its rows has been decoded (every test row has a ScenarioID).
func decodedChunks(r *run) []bool {
	out := make([]bool, len(r.lazy.chunks))
	for i := range r.rows {
		if r.rows[r.col.AppendIdx[i]].ScenarioID != "" {
			out[i/lazyChunkRows] = true
		}
	}
	return out
}

// adviceJSONOracle is json.Marshal of the oracle rows, "[]" when empty.
func adviceJSONOracle(t testing.TB, rows []Point) []byte {
	t.Helper()
	if rows == nil {
		rows = []Point{}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Cold advice on a mapped snapshot works on the columns and the row
// section alone: AdviceJSON for tag-free filters splices the survivors'
// persisted bytes without decoding a single row, and Advice decodes
// exactly the chunks that hold survivors.
func TestColdAdviceOnMappedSnapshotDecodesOnlySurvivors(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(5)), 5000)
	sn := mappedSnapshot(t, s)
	if len(sn.base.lazy.chunks) < 3 {
		t.Fatalf("%d chunks: too few for the decode check to mean anything", len(sn.base.lazy.chunks))
	}
	posOf := map[string]int{}
	heap := s.Snapshot().base
	for i := range heap.rows {
		posOf[heap.row(int32(i)).ScenarioID] = i
	}
	filters := []Filter{
		{AppName: "nosuchapp"},                        // unknown symbol
		{AppName: "wrf", SKU: "hc44rs"},               // two fields
		{SKU: "HB120RS_V2", MinNodes: 2, MaxNodes: 8}, // indexed + node bounds
		{MinNodes: 4},                                 // node bound only
		{MaxNodes: 2, IncludeFailed: true},            // node bound only
	}
	for _, f := range filters {
		c := f.Canonical()
		if _, _, hot := sn.HotAdviceJSON(&c, false); hot {
			t.Fatalf("%+v is hot; the test needs cold filters", f)
		}
		for _, byCost := range []bool{false, true} {
			got, n, err := sn.AdviceJSON(&c, byCost)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveAdvice(s.SelectScan(f), byCost)
			if n != len(want) || string(got) != string(adviceJSONOracle(t, want)) {
				t.Fatalf("%+v byCost=%v: cold AdviceJSON diverges from the oracle (%d vs %d rows)", f, byCost, n, len(want))
			}
		}
	}
	for c, decoded := range decodedChunks(sn.base) {
		if decoded {
			t.Fatalf("cold AdviceJSON decoded rows of chunk %d", c)
		}
	}

	wantDecoded := make([]bool, len(sn.base.lazy.chunks))
	partial := false
	for _, f := range filters {
		c := f.Canonical()
		for _, byCost := range []bool{false, true} {
			rows := sn.Advice(&c, byCost)
			if want := naiveAdvice(s.SelectScan(f), byCost); !reflect.DeepEqual(rows, want) {
				t.Fatalf("%+v byCost=%v: cold Advice diverges from the oracle (%d vs %d rows)", f, byCost, len(rows), len(want))
			}
			for _, r := range rows {
				wantDecoded[posOf[r.ScenarioID]/lazyChunkRows] = true
			}
		}
		got := decodedChunks(sn.base)
		if !reflect.DeepEqual(got, wantDecoded) {
			t.Fatalf("after %+v: decoded chunks %v, want only the survivors' %v", f, got, wantDecoded)
		}
		some, all := false, true
		for _, d := range got {
			some, all = some || d, all && d
		}
		partial = partial || (some && !all)
	}
	if !partial {
		t.Fatal("no filter left a chunk undecoded while decoding another; the check is vacuous")
	}
}

// FuzzColumnarSelect drives arbitrary filters at randomized stores and
// requires the columnar Select to match the scan baseline
// exactly, and the columnar advice of every filter — rows in both orders
// and their JSON, on a heap and a mapped snapshot — to match the
// independent dominance oracle over the scan.
func FuzzColumnarSelect(f *testing.F) {
	f.Add(int64(1), "lammps", "hb120rs_v3", "atoms=864M", 0, 0, false, false)
	f.Add(int64(2), "LAMMPS", "STANDARD_HC44RS", "", 2, 16, true, true)
	f.Add(int64(3), "", "", "", -3, 0, false, true)
	f.Add(int64(4), "wrf", "nosuchsku", "cells=8M", 1, 1, true, false)
	f.Fuzz(func(t *testing.T, seed int64, app, sku, input string, minN, maxN int, includeFailed, tagFilter bool) {
		rng := rand.New(rand.NewSource(seed))
		s := randomStore(rng, 30+int(uint64(seed)%150))
		fl := Filter{
			AppName:       app,
			SKU:           sku,
			InputDesc:     input,
			MinNodes:      minN % 64,
			MaxNodes:      maxN % 64,
			IncludeFailed: includeFailed,
		}
		if tagFilter {
			fl.Tags = map[string]string{"run": "r1"}
		}
		got, want := s.Select(fl), s.SelectScan(fl)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("columnar Select diverges from scan for %+v (%d vs %d pts)", fl, len(got), len(want))
		}
		c := fl.Canonical()
		for _, sn := range []*Snapshot{s.Snapshot(), mappedSnapshot(t, s)} {
			for _, byCost := range []bool{false, true} {
				oracle := naiveAdvice(want, byCost)
				if rows := sn.Advice(&c, byCost); !reflect.DeepEqual(rows, oracle) {
					t.Fatalf("Advice diverges from the oracle for %+v byCost=%v mapped=%v (%d vs %d rows)",
						fl, byCost, sn.base.lazy != nil, len(rows), len(oracle))
				}
				got, n, err := sn.AdviceJSON(&c, byCost)
				if err != nil {
					t.Fatal(err)
				}
				if wantJSON := adviceJSONOracle(t, oracle); n != len(oracle) || string(got) != string(wantJSON) {
					t.Fatalf("AdviceJSON diverges from json.Marshal of the oracle for %+v byCost=%v mapped=%v\n got: %s\nwant: %s",
						fl, byCost, sn.base.lazy != nil, got, wantJSON)
				}
			}
		}
	})
}
