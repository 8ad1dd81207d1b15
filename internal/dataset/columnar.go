package dataset

import (
	"sort"
	"strings"
	"sync"
)

// This file implements the columnar side of a Snapshot: a struct-of-arrays
// mirror of the sorted points, and the one advice path built on it. The
// row slice stays the source of truth (Select still returns []Point
// copies); the columns exist so the per-candidate filter predicate is a
// handful of integer compares over contiguous memory instead of
// case-folding 20-field structs, and so the Pareto front of any filter is
// a sort of candidate positions instead of copies of full points. Advice
// and AdviceJSON serve every filter from that front, touching only the
// surviving rows; the hot filters keep a per-snapshot memo of it.
//
// Everything here is immutable once the snapshot is published, with one
// carefully-scoped exception: each hotFront computes its front at most
// once, on first use, under a sync.Once, which is safe for any number of
// concurrent readers.

// columns is the struct-of-arrays mirror of Snapshot.sorted. String fields
// are interned through one shared symbol table: two cells are equal iff
// their strings are equal, so cross-column compares (a filter SKU against
// both the full name and the alias column) are plain uint32 equality.
type columns struct {
	syms map[string]uint32 // interned symbol -> dense ID

	app    []uint32 // ToLower(AppName) symbol per point
	sku    []uint32 // ToLower(SKU) symbol per point
	alias  []uint32 // ToLower(SKUAlias) symbol per point
	input  []uint32 // exact InputDesc symbol per point
	nodes  []int32
	exec   []float64
	cost   []float64
	failed []uint64 // bitmap, one bit per point
}

func (cs *columns) intern(s string) uint32 {
	if id, ok := cs.syms[s]; ok {
		return id
	}
	id := uint32(len(cs.syms))
	cs.syms[s] = id
	return id
}

func (cs *columns) failedBit(i int) bool {
	return cs.failed[i>>6]&(1<<(uint(i)&63)) != 0
}

// colFilter is a CanonicalFilter with its string constraints resolved to
// this snapshot's symbol IDs, so matching a candidate does no string work
// at all (tags excepted — they stay a residual map probe on the row).
type colFilter struct {
	c                     *CanonicalFilter
	appID, skuID, inputID uint32
	hasApp, hasSKU, hasIn bool
}

// resolve interns the filter's string constraints against the snapshot's
// symbol table. A constrained value absent from the table matches nothing
// in any column, so lookups that miss still yield a correct (never-match)
// filter; the ok result lets callers skip the scan entirely.
func (sn *Snapshot) resolve(c *CanonicalFilter) (colFilter, bool) {
	cf := colFilter{c: c}
	if c.app != "" {
		id, ok := sn.col.syms[c.app]
		if !ok {
			return cf, false
		}
		cf.appID, cf.hasApp = id, true
	}
	if c.sku != "" {
		id, ok := sn.col.syms[c.sku]
		if !ok {
			return cf, false
		}
		cf.skuID, cf.hasSKU = id, true
	}
	if c.input != "" {
		id, ok := sn.col.syms[c.input]
		if !ok {
			return cf, false
		}
		cf.inputID, cf.hasIn = id, true
	}
	return cf, true
}

// matchAt reports whether point i passes the resolved filter. It mirrors
// CanonicalFilter.Match exactly (the property and fuzz suites pin the two
// together against SelectScan), touching only the columns until the tag
// residual.
func (sn *Snapshot) matchAt(cf *colFilter, i int) bool {
	col := &sn.col
	if !cf.c.includeFailed && col.failedBit(i) {
		return false
	}
	if cf.hasApp && col.app[i] != cf.appID {
		return false
	}
	if cf.hasSKU && col.sku[i] != cf.skuID && col.alias[i] != cf.skuID {
		return false
	}
	if cf.hasIn && col.input[i] != cf.inputID {
		return false
	}
	if cf.c.minNodes > 0 && int(col.nodes[i]) < cf.c.minNodes {
		return false
	}
	if cf.c.maxNodes > 0 && int(col.nodes[i]) > cf.c.maxNodes {
		return false
	}
	if len(cf.c.tags) > 0 {
		sn.ensureRow(i) // tags are a row residual; lazy rows must exist first
		for _, t := range cf.c.tags {
			if sn.sorted[i].Tags[t.k] != t.v {
				return false
			}
		}
	}
	return true
}

// sortByTimeCost stably sorts candidate positions by ascending (exec,
// cost), comparing column cells. The hand-rolled bottom-up merge avoids
// sort.SliceStable's reflection-based swaps on the per-generation front
// path. Stability is load-bearing, not a nicety: a stable sort's output is
// uniquely determined by keys and input order, so this sort and
// pareto.Front's sort.SliceStable produce the same permutation of the same
// candidates — which is what makes hot fronts byte-identical to
// the scan path even for exact (time, cost) duplicates.
func sortByTimeCost(idx []int32, exec, cost []float64) {
	n := len(idx)
	if n < 2 {
		return
	}
	less := func(a, b int32) bool {
		if exec[a] != exec[b] {
			return exec[a] < exec[b]
		}
		return cost[a] < cost[b]
	}
	buf := make([]int32, n)
	src, dst := idx, buf
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				// Take left on ties: stability.
				if j >= hi || (i < mid && !less(src[j], src[i])) {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
	}
	if len(src) > 0 && &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// frontPositions computes the Pareto front of the filter's matches
// straight from the columns: the matching positions (in canonical select
// order), minus failed rows, are stably sorted by (time, cost) and swept
// once. The sweep replicates pareto.Front expression for expression —
// including the NaN-tolerant minCost seed — so materializing the surviving
// positions equals pareto.Front(sn.Select(f)) byte for byte without
// copying the candidate points first. The returned positions are in
// by-time order.
func (sn *Snapshot) frontPositions(c *CanonicalFilter) []int32 {
	pos := sn.matchPositions(c)
	cand := pos[:0] // pareto.Front skips failed runs: drop them in place
	for _, i := range pos {
		if !sn.col.failedBit(int(i)) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	sortByTimeCost(cand, sn.col.exec, sn.col.cost)
	cost := sn.col.cost
	front := cand[:0] // survivors are a subsequence of cand: reuse it
	minCost := cost[cand[0]] + 1
	for _, i := range cand {
		if cost[i] < minCost {
			front = append(front, i)
			minCost = cost[i]
		}
	}
	return front
}

// hotFrontLimit caps how many filters get hot fronts per snapshot.
// Candidates (the unfiltered view, each app, each SKU alias, each input)
// are ranked by match count, so the cap keeps the filters that are most
// expensive to front on demand.
const hotFrontLimit = 24

// hotFront is the per-snapshot memo of the cold advice path for one hot
// filter: the surviving positions in by-time order plus both presentation
// orders as JSON array fragments the serving layer stitches into its
// envelope without reflection. Everything inside is written once, under
// once, on first use, and immutable afterwards.
type hotFront struct {
	c    CanonicalFilter
	once sync.Once

	pos                []int32 // surviving positions, by-time order
	timeJSON, costJSON []byte
	err                error // a survivor's row could not marshal
}

func (hf *hotFront) compute(sn *Snapshot) {
	hf.once.Do(func() {
		hf.pos = sn.frontPositions(&hf.c)
		hf.timeJSON, hf.err = sn.frontJSON(hf.pos, false)
		if hf.err == nil {
			hf.costJSON, hf.err = sn.frontJSON(hf.pos, true)
		}
	})
}

// frontJSON renders front positions (by-time order) as a JSON array of
// their rows: the same bytes json.Marshal produces for the points. On a
// mapped snapshot each row's bytes are spliced from the row section, so no
// row is decoded; on a heap snapshot only the survivors are marshalled. A
// front's cost is strictly decreasing in time order, so the cost order is
// the time order's exact reversal — no second sort, and no tie-break to
// disagree on. A row that cannot marshal (e.g. a NaN metric) is an error.
func (sn *Snapshot) frontJSON(pos []int32, byCost bool) ([]byte, error) {
	buf := []byte{'['}
	for i := range pos {
		if i > 0 {
			buf = append(buf, ',')
		}
		p := pos[i]
		if byCost {
			p = pos[len(pos)-1-i]
		}
		row, err := sn.rowJSON(int(p))
		if err != nil {
			return nil, err
		}
		buf = append(buf, row...)
	}
	return append(buf, ']'), nil
}

// buildHotFronts selects the top-K single-field filters by match count and
// installs their fronts, each computed on its first query. The hot map
// itself is immutable after this returns; see hotFront for the
// compute-once discipline. Invalidation is the snapshot lifecycle itself:
// a generation roll builds a new snapshot with new hot entries, and the
// old ones are garbage the moment the last reader drops the old snapshot.
func (sn *Snapshot) buildHotFronts() {
	type cand struct {
		f Filter
		n int
	}
	cands := make([]cand, 0, 1+len(sn.apps)+len(sn.skus)+len(sn.inputs))
	cands = append(cands, cand{Filter{}, len(sn.sorted)})
	for _, app := range sn.apps {
		cands = append(cands, cand{Filter{AppName: app}, len(sn.byApp[strings.ToLower(app)])})
	}
	for _, alias := range sn.skus {
		cands = append(cands, cand{Filter{SKU: alias}, len(sn.bySKU[strings.ToLower(alias)])})
	}
	for _, in := range sn.inputs {
		if in != "" {
			cands = append(cands, cand{Filter{InputDesc: in}, len(sn.byInput[in])})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].n > cands[j].n })
	if len(cands) > hotFrontLimit {
		cands = cands[:hotFrontLimit]
	}
	sn.hot = make(map[string]*hotFront, len(cands))
	for _, cd := range cands {
		c := cd.f.Canonical()
		sn.hot[c.Key()] = &hotFront{c: c}
	}
}

// Advice returns the advice rows of any filter in the requested order:
// the Pareto front of its matches, equal to pareto.Advice(sn.Select(f))
// row for row. A hot filter answers from its memoized front; any other
// filter computes the same front from the columns without storing it. Only
// the surviving rows are materialized, so on a mapped snapshot only the
// chunks that hold them are decoded. The rows are a fresh slice on every
// call; the query engine memoizes them per generation.
func (sn *Snapshot) Advice(c *CanonicalFilter, byCost bool) []Point {
	var pos []int32
	if hf := sn.hot[c.Key()]; hf != nil {
		hf.compute(sn)
		pos = hf.pos
	} else {
		pos = sn.frontPositions(c)
	}
	if len(pos) == 0 {
		return nil
	}
	rows := make([]Point, len(pos))
	for i, p := range pos {
		sn.ensureRow(int(p))
		if byCost {
			rows[len(rows)-1-i] = sn.sorted[p]
		} else {
			rows[i] = sn.sorted[p]
		}
	}
	return rows
}

// AdviceJSON returns the advice rows of any filter as a JSON array
// fragment, byte-identical to json.Marshal of Advice's rows ("[]" when
// none survive), plus the row count. A hot filter answers from its
// memoized fragment, which is shared and must not be modified; any other
// filter renders a fresh one from the same front. On a mapped snapshot the
// fragment is spliced from the persisted row bytes, so no row is decoded.
// A survivor that cannot marshal is an error.
func (sn *Snapshot) AdviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, error) {
	hf := sn.hot[c.Key()]
	if hf == nil {
		pos := sn.frontPositions(c)
		b, err := sn.frontJSON(pos, byCost)
		return b, len(pos), err
	}
	hf.compute(sn)
	if byCost {
		return hf.costJSON, len(hf.pos), hf.err
	}
	return hf.timeJSON, len(hf.pos), hf.err
}

// HotAdviceJSON is AdviceJSON restricted to hot filters: ok=false when the
// filter is not hot or its rows cannot marshal. It reports whether a
// request is answered from the memo without computing a front.
func (sn *Snapshot) HotAdviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, bool) {
	if sn.hot[c.Key()] == nil {
		return nil, 0, false
	}
	b, n, err := sn.AdviceJSON(c, byCost)
	return b, n, err == nil
}
