package dataset

import (
	"sort"
	"strings"
	"sync"
)

// This file implements the delta half of a store's read view. A Store
// serves an immutable base Snapshot — the mapped columnar snapshot a load
// hands it, or one heap build — plus the points appended since, the delta.
// A generation roll builds only the delta's own small snapshot (its points
// in canonical order with their own symbol table, columns and posting
// lists) and never touches the base's rows, columns or posting lists, so
// it costs O(|delta|). Queries run on both halves and merge:
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
//     The base's memoized fronts therefore survive every roll, and a
//     merged front costs O(|front(B)| + |front(D)|).
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

// deltaView is what a base + delta snapshot holds besides its generation.
// Everything but the merged hot memo is immutable.
type deltaView struct {
	base *Snapshot
	run  *Snapshot // heap snapshot of the delta points in canonical order
	rank []int32   // rank[k]: the base position run position k merges before
	ord  []int32   // ord[k]: delta append index of run position k

	hotMu sync.Mutex
	slots map[hotKey]*hotFront // guarded-by: hotMu; merged fronts of the hot filters
}

// hotKey names a merged hot slot: a field and its canonical value, or
// field numFields for the unfiltered view.
type hotKey struct {
	field int
	value string
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
func (lg *deltaLog) extend(base *Snapshot, pts []Point) {
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
// one snapshot constructor.
func (lg *deltaLog) snapshot(base *Snapshot, pts []Point, gen uint64) *Snapshot {
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
	return &Snapshot{gen: gen, delta: &deltaView{
		base: base,
		run:  newSnapshot(c, sorted, nil, uint64(n)),
		rank: rank,
		ord:  lg.ord,
	}}
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

// heapBase serves points already in canonical order, with their append
// indexes, as a base.
func heapBase(sorted []Point, appendIdx []uint32, gen uint64) *Snapshot {
	c := columnsOf(sorted)
	c.AppendIdx = appendIdx
	return newSnapshot(c, sorted, nil, gen)
}

// foldPoints builds a heap base over points in append order: the first
// base of a store that has none.
func foldPoints(pts []Point, gen uint64) *Snapshot {
	idx := make([]uint32, len(pts))
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return pointLess(&pts[idx[a]], &pts[idx[b]]) })
	sorted := make([]Point, len(pts))
	for k, i := range idx {
		sorted[k] = pts[i]
	}
	return heapBase(sorted, idx, gen)
}

// fold builds the heap base that replaces this base and delta. The two
// runs merge by rank, so no row is compared; a mapped base decodes every
// row here, once.
func (d *deltaView) fold(gen uint64) *Snapshot {
	b, r := d.base, d.run
	b.ensureAllRows()
	nb, nr := b.Len(), r.Len()
	sorted := make([]Point, 0, nb+nr)
	idx := make([]uint32, 0, nb+nr)
	i := 0
	for k := 0; k <= nr; k++ {
		end := nb
		if k < nr {
			end = int(d.rank[k])
		}
		for ; i < end; i++ {
			sorted = append(sorted, b.sorted[i])
			idx = append(idx, b.col.AppendIdx[i])
		}
		if k < nr {
			sorted = append(sorted, r.sorted[k])
			idx = append(idx, uint32(nb)+uint32(d.ord[k]))
		}
	}
	return heapBase(sorted, idx, gen)
}

// A ref names a row of a base + delta snapshot: base position ref when
// non-negative, run position ^ref otherwise.

func (d *deltaView) row(ref int32) *Point {
	if ref >= 0 {
		return d.base.row(ref)
	}
	return &d.run.sorted[^ref]
}

func (d *deltaView) rowJSON(ref int32) ([]byte, error) {
	if ref >= 0 {
		return d.base.rowJSON(ref)
	}
	return d.run.rowJSON(^ref)
}

// selectRows is Select over both halves: each half's matches, merged by
// rank into canonical order.
func (d *deltaView) selectRows(c *CanonicalFilter) []Point {
	bcf, rcf := d.base.resolve(c), d.run.resolve(c)
	bp, rp := d.base.matchPositions(&bcf), d.run.matchPositions(&rcf)
	if len(bp)+len(rp) == 0 {
		return nil
	}
	out := make([]Point, 0, len(bp)+len(rp))
	for _, k := range rp {
		for ; len(bp) > 0 && bp[0] < d.rank[k]; bp = bp[1:] {
			out = append(out, *d.base.row(bp[0]))
		}
		out = append(out, d.run.sorted[k])
	}
	for _, i := range bp {
		out = append(out, *d.base.row(i))
	}
	return out
}

// precedes reports whether base position b comes before run position k in
// the sweep order (exec, cost, canonical position).
func (d *deltaView) precedes(b, k int32) bool {
	bc, rc := d.base.col, d.run.col
	if bc.Exec[b] != rc.Exec[k] {
		return bc.Exec[b] < rc.Exec[k]
	}
	if bc.Cost[b] != rc.Cost[k] {
		return bc.Cost[b] < rc.Cost[k]
	}
	return b < d.rank[k]
}

// front returns the merged front of the filter as refs in by-time order:
// each half's front (from its memo when the filter is hot there), merged in
// sweep order and swept again, exactly as frontPositions sweeps.
func (d *deltaView) front(c *CanonicalFilter) []int32 {
	bcf, rcf := d.base.resolve(c), d.run.resolve(c)
	bf, rf := d.base.frontOf(&bcf), d.run.frontOf(&rcf)
	if len(bf)+len(rf) == 0 {
		return nil
	}
	merged := make([]int32, 0, len(bf)+len(rf))
	for len(bf) > 0 || len(rf) > 0 {
		if len(rf) == 0 || (len(bf) > 0 && d.precedes(bf[0], rf[0])) {
			merged, bf = append(merged, bf[0]), bf[1:]
		} else {
			merged, rf = append(merged, ^rf[0]), rf[1:]
		}
	}
	front := merged[:0]
	minCost := d.cost(merged[0]) + 1
	for _, ref := range merged {
		if cost := d.cost(ref); cost < minCost {
			front = append(front, ref)
			minCost = cost
		}
	}
	return front
}

func (d *deltaView) cost(ref int32) float64 {
	if ref >= 0 {
		return d.base.col.Cost[ref]
	}
	return d.run.col.Cost[^ref]
}

// hot returns the merged memo of a hot filter, computed on first use, and
// nil for any other filter: the same filters Snapshot.hotSlot memoizes,
// with a value known to either half. Slots are made on first use.
func (d *deltaView) hot(c *CanonicalFilter) *hotFront {
	if c.includeFailed || c.minNodes > 0 || c.maxNodes > 0 || len(c.tags) > 0 {
		return nil
	}
	key := hotKey{field: numFields}
	for f, v := range [numFields]string{c.app, c.sku, c.input} {
		if v == "" {
			continue
		}
		if key.field != numFields {
			return nil // a second field
		}
		key = hotKey{f, v}
	}
	if key.field != numFields {
		_, inBase := d.base.syms[key.value]
		_, inRun := d.run.syms[key.value]
		if !inBase && !inRun {
			return nil
		}
	}
	d.hotMu.Lock()
	hf := d.slots[key]
	if hf == nil {
		if d.slots == nil {
			d.slots = make(map[hotKey]*hotFront)
		}
		hf = &hotFront{}
		d.slots[key] = hf
	}
	d.hotMu.Unlock()
	hf.once.Do(func() {
		hf.pos = d.front(c)
		hf.timeJSON, hf.err = frontJSON(hf.pos, false, d.rowJSON)
		if hf.err == nil {
			hf.costJSON, hf.err = frontJSON(hf.pos, true, d.rowJSON)
		}
	})
	return hf
}

// frontRefs returns the filter's merged front, from the memo when it is hot.
func (d *deltaView) frontRefs(c *CanonicalFilter) []int32 {
	if hf := d.hot(c); hf != nil {
		return hf.pos
	}
	return d.front(c)
}

func (d *deltaView) adviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, error) {
	if hf := d.hot(c); hf != nil {
		b, err := hf.pick(byCost)
		return b, len(hf.pos), err
	}
	pos := d.front(c)
	b, err := frontJSON(pos, byCost, d.rowJSON)
	return b, len(pos), err
}

func (d *deltaView) hotAdviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, bool) {
	hf := d.hot(c)
	if hf == nil {
		return nil, 0, false
	}
	b, err := hf.pick(byCost)
	return b, len(hf.pos), err == nil
}
