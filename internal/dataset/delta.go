package dataset

import (
	"sort"
	"strings"
)

// This file implements the delta half of a store's read view. A Store
// serves an immutable base run — the mapped columnar snapshot a load hands
// it, or one heap build — plus the points appended since, the delta. A
// generation roll builds only the delta's own small run (its points in
// canonical order with their own symbol table, columns and posting lists)
// and never touches the base's rows, columns or posting lists, so it costs
// O(|delta|). Queries run on both halves and merge:
//
//   - Canonical order. Each delta point carries its merge rank: the upper
//     bound of the point in the base by pointLess (on equal keys the base
//     was appended first). Base position i precedes delta position k iff
//     i < rank[k], so no query compares strings across the halves.
//   - Pareto fronts. frontPositions sweeps candidates in the total order
//     (exec, cost, canonical position), keeping a point iff its cost is
//     below every earlier one. A point a sweep of one half drops has an
//     earlier point of that half at no higher cost, which stays earlier in
//     the union, so front(B ∪ D) = front(front(B) ∪ front(D)) exactly.
//     The base's memoized front positions therefore survive every roll,
//     and a merged front costs O(|front(B)| + |front(D)|).
//
// Past foldDue's rule the delta folds into a new heap base (Store.Snapshot).
// This is the log-structured merge split (O'Neil et al., "The
// Log-Structured Merge-Tree", Acta Informatica 1996).

// The fold rule: the delta folds into a new base once it holds at least
// foldMinDelta points and at least 1/foldRatio of the base's. Two costs
// set it. Every roll rebuilds the delta's snapshot and every query walks
// the delta's matches, so the delta's overhead grows with |D|; a fold
// rebuilds all |B|+|D| points once, and its cost is spread over the
// |D| appends that preceded it. Folding at |D| = |B|/foldRatio bounds that
// spread to about foldRatio point-builds per append, a constant at any
// store size, while a delta query and a roll stay within 1/foldRatio of a
// full scan and a full build. The floor keeps small stores from folding
// every few appends: below about a thousand points a fold costs a
// millisecond or two, as much as the delta overhead it would remove.
const (
	foldMinDelta = 1024
	foldRatio    = 16
)

// foldDue reports whether a delta of nd points over a base of nb points
// should fold.
func foldDue(nb, nd int) bool {
	return nd >= foldMinDelta && nd*foldRatio >= nb
}

// deltaKey is what a roll keeps per delta point so the next roll does no
// string work for it: its symbols in the delta's table and its merge rank.
type deltaKey struct {
	app, sku, alias, input uint32
	rank                   int32
}

// deltaLog is the store's incremental state for the delta over its
// current base. Each roll interns and ranks only the points appended since
// the last one. ord, the name lists and the published prefix of syms are
// never modified once a snapshot holds them: a roll replaces ord and a
// grown name list, and only appends to syms.
type deltaLog struct {
	keys []deltaKey // per delta point, append order
	ord  []int32    // delta append indexes in canonical order
	syms []string
	ids  map[string]uint32

	apps, aliases, inputs []string // distinct original-case names, sorted
}

func (lg *deltaLog) intern(s string) uint32 {
	id, ok := lg.ids[s]
	if !ok {
		if lg.ids == nil {
			lg.ids = make(map[string]uint32)
		}
		id = uint32(len(lg.syms))
		lg.ids[s] = id
		lg.syms = append(lg.syms, s)
	}
	return id
}

// extend interns and ranks pts[len(lg.keys):] against base and merges
// them into the canonical order.
func (lg *deltaLog) extend(base *run, pts []Point) {
	n0 := len(lg.keys)
	fresh := make([]int32, 0, len(pts)-n0)
	for j := n0; j < len(pts); j++ {
		p := &pts[j]
		lg.keys = append(lg.keys, deltaKey{
			app:   lg.intern(strings.ToLower(p.AppName)),
			sku:   lg.intern(strings.ToLower(p.SKU)),
			alias: lg.intern(strings.ToLower(p.SKUAlias)),
			input: lg.intern(p.InputDesc),
			rank:  base.upperBound(p),
		})
		lg.apps = insertName(lg.apps, p.AppName)
		lg.aliases = insertName(lg.aliases, p.SKUAlias)
		lg.inputs = insertName(lg.inputs, p.InputDesc)
		fresh = append(fresh, int32(j))
	}
	// Ranks order points of different ranks exactly as pointLess does
	// (rank[a] < rank[b] puts a base row between them), so strings are
	// compared only within a rank.
	less := func(a, b int32) bool {
		if ra, rb := lg.keys[a].rank, lg.keys[b].rank; ra != rb {
			return ra < rb
		}
		return pointLess(&pts[a], &pts[b])
	}
	sort.SliceStable(fresh, func(a, b int) bool { return less(fresh[a], fresh[b]) })
	ord := make([]int32, 0, len(pts))
	old := lg.ord
	for _, f := range fresh {
		for len(old) > 0 && !less(f, old[0]) { // ties: the earlier append first
			ord = append(ord, old[0])
			old = old[1:]
		}
		ord = append(ord, f)
	}
	lg.ord = append(ord, old...)
}

// snapshot publishes the log as the base + delta snapshot at gen: the
// delta's rows and columns gathered into canonical order and served by the
// one run constructor.
func (lg *deltaLog) snapshot(base *run, pts []Point, gen uint64) *Snapshot {
	n := len(lg.ord)
	c := &Columnar{
		Count:      n,
		Syms:       lg.syms[:len(lg.syms):len(lg.syms)],
		App:        make([]uint32, n),
		SKU:        make([]uint32, n),
		Alias:      make([]uint32, n),
		Input:      make([]uint32, n),
		Nodes:      make([]int32, n),
		Exec:       make([]float64, n),
		Cost:       make([]float64, n),
		Failed:     make([]uint64, (n+63)/64),
		Apps:       lg.apps,
		SKUAliases: lg.aliases,
		Inputs:     lg.inputs,
	}
	sorted := make([]Point, n)
	rank := make([]int32, n)
	for k, j := range lg.ord {
		p, key := &pts[j], &lg.keys[j]
		sorted[k] = *p
		rank[k] = key.rank
		c.App[k], c.SKU[k], c.Alias[k], c.Input[k] = key.app, key.sku, key.alias, key.input
		c.Nodes[k], c.Exec[k], c.Cost[k] = int32(p.NNodes), p.ExecTimeSec, p.CostUSD
		if p.Failed {
			c.Failed[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	return &Snapshot{gen: gen, base: base, delta: newRun(c, sorted, nil), rank: rank, ord: lg.ord}
}

// insertName returns names with s added in sorted position: names itself
// when s is already there, else a new slice.
func insertName(names []string, s string) []string {
	i := sort.SearchStrings(names, s)
	if i < len(names) && names[i] == s {
		return names
	}
	out := make([]string, 0, len(names)+1)
	out = append(out, names[:i]...)
	out = append(out, s)
	return append(out, names[i:]...)
}

// unionNames merges two sorted lists of distinct names into a fresh one.
func unionNames(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// heapRun serves points already in canonical order, with their append
// indexes, as a base.
func heapRun(sorted []Point, appendIdx []uint32) *run {
	c := columnsOf(sorted)
	c.AppendIdx = appendIdx
	return newRun(c, sorted, nil)
}

// foldPoints builds a heap base over points in append order: the first
// base of a store that has none.
func foldPoints(pts []Point) *run {
	idx := make([]uint32, len(pts))
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return pointLess(&pts[idx[a]], &pts[idx[b]]) })
	sorted := make([]Point, len(pts))
	for k, i := range idx {
		sorted[k] = pts[i]
	}
	return heapRun(sorted, idx)
}

// fold builds the base-only snapshot, at the same generation, whose heap
// base replaces this base and delta. The two runs merge by rank, so no row
// is compared; a mapped base decodes every row here, once.
func (sn *Snapshot) fold() *Snapshot {
	b, d := sn.base, sn.delta
	b.ensureAllRows()
	nb, nd := b.len(), d.len()
	sorted := make([]Point, 0, nb+nd)
	idx := make([]uint32, 0, nb+nd)
	i := 0
	for k := 0; k <= nd; k++ {
		end := nb
		if k < nd {
			end = int(sn.rank[k])
		}
		for ; i < end; i++ {
			sorted = append(sorted, b.sorted[i])
			idx = append(idx, b.col.AppendIdx[i])
		}
		if k < nd {
			sorted = append(sorted, d.sorted[k])
			idx = append(idx, uint32(nb)+uint32(sn.ord[k]))
		}
	}
	return &Snapshot{gen: sn.gen, base: heapRun(sorted, idx)}
}

// A ref names a row of a snapshot: base position ref when non-negative,
// delta position ^ref otherwise.

func (sn *Snapshot) row(ref int32) *Point {
	if ref >= 0 {
		return sn.base.row(ref)
	}
	return &sn.delta.sorted[^ref]
}

func (sn *Snapshot) rowJSON(ref int32) ([]byte, error) {
	if ref >= 0 {
		return sn.base.rowJSON(ref)
	}
	return sn.delta.rowJSON(^ref)
}

func (sn *Snapshot) cost(ref int32) float64 {
	if ref >= 0 {
		return sn.base.col.Cost[ref]
	}
	return sn.delta.col.Cost[^ref]
}

// precedes reports whether base position b comes before delta position k
// in the sweep order (exec, cost, canonical position).
func (sn *Snapshot) precedes(b, k int32) bool {
	bc, dc := sn.base.col, sn.delta.col
	if bc.Exec[b] != dc.Exec[k] {
		return bc.Exec[b] < dc.Exec[k]
	}
	if bc.Cost[b] != dc.Cost[k] {
		return bc.Cost[b] < dc.Cost[k]
	}
	return b < sn.rank[k]
}

// front returns the filter's front as refs in by-time order: each half's
// front (from its memo when the filter is hot there), merged in sweep
// order and swept again, exactly as frontPositions sweeps. With no delta
// front it is the base's front itself, which may be the shared memo: the
// result is read-only.
func (sn *Snapshot) front(b, d *colFilter) []int32 {
	bf, df := sn.base.front(b), sn.delta.front(d)
	if len(df) == 0 {
		return bf
	}
	merged := make([]int32, 0, len(bf)+len(df))
	for len(bf) > 0 || len(df) > 0 {
		if len(df) == 0 || (len(bf) > 0 && sn.precedes(bf[0], df[0])) {
			merged, bf = append(merged, bf[0]), bf[1:]
		} else {
			merged, df = append(merged, ^df[0]), df[1:]
		}
	}
	front := merged[:0]
	minCost := sn.cost(merged[0]) + 1
	for _, ref := range merged {
		if cost := sn.cost(ref); cost < minCost {
			front = append(front, ref)
			minCost = cost
		}
	}
	return front
}
