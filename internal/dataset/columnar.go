package dataset

import "sync"

// This file implements the columnar side of a snapshot: the
// struct-of-arrays form every run serves from, and the one advice path
// built on it. The row slice stays the source of truth (Select still
// returns []Point copies); the columns exist so the per-candidate filter
// predicate is a handful of integer compares over contiguous memory instead
// of case-folding 20-field structs, and so the Pareto front of any filter
// is a sort of candidate positions instead of copies of full points.
// Advice and AdviceJSON serve every filter from that front, touching only
// the surviving rows; the hot filters keep a per-run memo of the front's
// positions, and each request renders its rows in the order it asks for.
//
// Everything here is immutable once the run is published, with one
// carefully-scoped exception: each hotFront computes its positions at most
// once, on first use, under a sync.Once, which is safe for any number of
// concurrent readers.

// Columnar is the flat, storage-ready form of a snapshot's read-optimized
// state. Every run serves from one. A base's is a whole image, rows
// included: the storage load path fills one from file sections for
// NewMappedStore, and a fold or a compaction builds one by merging a base
// and a delta (Snapshot.merge; Store.Image hands it to the segment
// writer). A delta run's carries its append indexes, through which the run
// reads the store's appended points, but no row bytes. Slices handed
// to NewMappedStore may alias mapped read-only memory and must never be
// written through; string fields are always heap strings.
//
// String fields are interned through one shared symbol table: two cells
// are equal iff their strings are equal, so cross-column compares (a
// filter SKU against both the full name and the alias column) are plain
// uint32 equality.
type Columnar struct {
	// Count is the number of points covered.
	Count int

	// Rows holds the concatenated JSON encodings of the points in canonical
	// sorted order; RowOffs[k]..RowOffs[k+1] bounds row k (so RowOffs has
	// Count+1 entries and starts at 0). Nil on a delta run.
	Rows    []byte
	RowOffs []uint64

	// AppendIdx maps sorted position -> append-order index, a permutation
	// of 0..Count-1 (the same per-row index the v1 frame format carries).
	// Every run reads its row at sorted position i as rows[AppendIdx[i]].
	AppendIdx []uint32

	// Syms is the dense symbol table: Syms[id] is the interned string the
	// uint32 column cells refer to. IDs are assigned in first-use order,
	// per row app, SKU, alias, input.
	Syms []string

	App    []uint32 // ToLower(AppName) symbol per point
	SKU    []uint32 // ToLower(SKU) symbol per point
	Alias  []uint32 // ToLower(SKUAlias) symbol per point
	Input  []uint32 // exact InputDesc symbol per point
	Nodes  []int32
	Exec   []float64
	Cost   []float64
	Failed []uint64 // bitmap, one bit per point

	Apps       []string // distinct AppNames (original case), sorted
	SKUAliases []string // distinct SKUAliases (original case), canonical order
	Inputs     []string // distinct InputDescs, sorted

	// Ref, when non-nil, pins whatever owns the memory the slices above
	// alias (an mmap region with a munmap finalizer); the snapshot holds the
	// Columnar, and so Ref, for its lifetime.
	Ref any
}

func (c *Columnar) failedBit(i int) bool {
	return c.Failed[i>>6]&(1<<(uint(i)&63)) != 0
}

// The indexed fields: each has a posting list and a hot slot per symbol ID.
const (
	fieldApp = iota
	fieldSKU // full name or alias
	fieldInput
	numFields
)

// colFilter is a CanonicalFilter with its string constraints resolved to
// one run's symbol IDs, so matching a candidate does no string work at all
// (tags excepted — they stay a residual map probe on the row).
type colFilter struct {
	c      *CanonicalFilter
	id     [numFields]uint32
	has    [numFields]bool
	absent bool // a constrained value is not in the symbol table, or the run is nil: nothing matches
}

// resolve looks the filter's string constraints up in both halves' symbol
// tables. A nil delta resolves as absent, so every query on it matches
// nothing without touching it.
func (sn *Snapshot) resolve(c *CanonicalFilter) (b, d colFilter) {
	return sn.base.resolve(c), sn.delta.resolve(c)
}

// resolve looks the filter's string constraints up in the run's symbol
// table. A constrained value absent from the table matches nothing in any
// column, which absent records so callers skip the scan entirely.
func (r *run) resolve(c *CanonicalFilter) colFilter {
	cf := colFilter{c: c, absent: r == nil}
	if r == nil {
		return cf
	}
	for f, s := range [numFields]string{c.app, c.sku, c.input} {
		if s == "" {
			continue
		}
		id, ok := r.syms[s]
		if !ok {
			cf.absent = true
			break
		}
		cf.id[f], cf.has[f] = id, true
	}
	return cf
}

// matchAt reports whether point i passes the resolved filter. It mirrors
// CanonicalFilter.Match exactly (the property and fuzz suites pin the two
// together against SelectScan), touching only the columns until the tag
// residual.
func (r *run) matchAt(cf *colFilter, i int) bool {
	col := r.col
	if !cf.c.includeFailed && col.failedBit(i) {
		return false
	}
	if cf.has[fieldApp] && col.App[i] != cf.id[fieldApp] {
		return false
	}
	if id := cf.id[fieldSKU]; cf.has[fieldSKU] && col.SKU[i] != id && col.Alias[i] != id {
		return false
	}
	if cf.has[fieldInput] && col.Input[i] != cf.id[fieldInput] {
		return false
	}
	if cf.c.minNodes > 0 && int(col.Nodes[i]) < cf.c.minNodes {
		return false
	}
	if cf.c.maxNodes > 0 && int(col.Nodes[i]) > cf.c.maxNodes {
		return false
	}
	for _, t := range cf.c.tags { // tags are a row residual; row decodes a lazy row first
		if r.row(int32(i)).Tags[t.k] != t.v {
			return false
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
// positions equals pareto.Front(Select(f)) byte for byte without copying
// the candidate points first. The returned positions are in by-time order.
func (r *run) frontPositions(cf *colFilter) []int32 {
	pos := r.matchPositions(cf)
	cand := pos[:0] // pareto.Front skips failed runs: drop them in place
	for _, i := range pos {
		if !r.col.failedBit(int(i)) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	cost := r.col.Cost
	sortByTimeCost(cand, r.col.Exec, cost)
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

// hotFront memoizes the front positions of one hot filter on one run, in
// by-time order. pos is written once, under once, on first use, and is
// shared and read-only afterwards.
type hotFront struct {
	once sync.Once
	pos  []int32
}

// hotSlot returns the memo slot of a hot filter and nil for any other. The
// hot filters are the unfiltered view and every filter on exactly one of
// app, SKU (full name or alias) and input whose value the field holds in
// this run, with no node bound, tag or IncludeFailed: one slot per (field,
// symbol ID), so how many there are is bounded by the symbol table, not by
// the request stream. A snapshot's filter is hot when it is hot on either
// half. A base's slots live as long as the base, across generation rolls;
// a delta's are new at every roll.
func (r *run) hotSlot(cf *colFilter) *hotFront {
	c := cf.c
	if cf.absent || c.includeFailed || c.minNodes > 0 || c.maxNodes > 0 || len(c.tags) > 0 {
		return nil
	}
	hf, fields := &r.hotAll, 0
	for f, has := range cf.has {
		if has {
			if len(r.post[f][cf.id[f]]) == 0 {
				return nil // the symbol is another field's value
			}
			hf, fields = &r.hot[f][cf.id[f]], fields+1
		}
	}
	if fields > 1 {
		return nil
	}
	return hf
}

// front returns the filter's front positions in by-time order: the hot
// slot's memo, shared and read-only, when the filter is hot here, else a
// fresh front.
func (r *run) front(cf *colFilter) []int32 {
	if hf := r.hotSlot(cf); hf != nil {
		hf.once.Do(func() { hf.pos = r.frontPositions(cf) })
		return hf.pos
	}
	return r.frontPositions(cf)
}

// frontJSON renders front refs (by-time order) as a JSON array of their
// rows: the same bytes json.Marshal produces for the points. Base rows
// are spliced from the image's row bytes, so no row is decoded; delta
// rows are marshalled, survivors only. A front's cost is strictly
// decreasing in time order, so the cost order is the time order's exact
// reversal — no second sort, and no tie-break to disagree on. A row that
// cannot marshal (e.g. a NaN metric) is an error.
func (sn *Snapshot) frontJSON(refs []int32, byCost bool) ([]byte, error) {
	buf := []byte{'['}
	for i := range refs {
		if i > 0 {
			buf = append(buf, ',')
		}
		ref := refs[i]
		if byCost {
			ref = refs[len(refs)-1-i]
		}
		row, err := sn.rowJSON(ref)
		if err != nil {
			return nil, err
		}
		buf = append(buf, row...)
	}
	return append(buf, ']'), nil
}

// Advice returns the advice rows of any filter in the requested order:
// the Pareto front of its matches, equal to pareto.Advice(sn.Select(f))
// row for row. Only the surviving rows are materialized, so on a mapped
// base only the chunks that hold them are decoded. The rows are a fresh
// slice on every call; the query engine memoizes them per generation.
func (sn *Snapshot) Advice(c *CanonicalFilter, byCost bool) []Point {
	b, d := sn.resolve(c)
	refs := sn.front(&b, &d)
	if len(refs) == 0 {
		return nil
	}
	rows := make([]Point, len(refs))
	for i, ref := range refs {
		if byCost {
			rows[len(rows)-1-i] = *sn.row(ref)
		} else {
			rows[i] = *sn.row(ref)
		}
	}
	return rows
}

// AdviceJSON returns the advice rows of any filter as a JSON array
// fragment, byte-identical to json.Marshal of Advice's rows ("[]" when
// none survive), plus the row count. The fragment is fresh on every call,
// rendered in the requested order only; base rows are spliced from the
// image's row bytes, so no base row is decoded. A
// survivor that cannot marshal is an error.
func (sn *Snapshot) AdviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, error) {
	b, d := sn.resolve(c)
	refs := sn.front(&b, &d)
	buf, err := sn.frontJSON(refs, byCost)
	return buf, len(refs), err
}

// HotAdviceJSON is AdviceJSON restricted to hot filters: ok=false when the
// filter is not hot or its rows cannot marshal. A hot filter's front is
// merged from the halves' memoized positions, so no candidate is matched
// or sorted once each half has computed it.
func (sn *Snapshot) HotAdviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, bool) {
	b, d := sn.resolve(c)
	if sn.base.hotSlot(&b) == nil && sn.delta.hotSlot(&d) == nil {
		return nil, 0, false
	}
	buf, n, err := sn.AdviceJSON(c, byCost)
	return buf, n, err == nil
}
