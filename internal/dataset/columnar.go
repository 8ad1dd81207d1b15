package dataset

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file implements the columnar side of a Snapshot: the struct-of-arrays
// form every snapshot serves from, and the one advice path built on it. The
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

// Columnar is the flat, storage-ready form of a snapshot's read-optimized
// state. Every snapshot serves from one: a heap build interns its sorted
// points into a fresh Columnar (columnsOf), the segment compactor
// serializes the one BuildColumnar returns, and the storage load path
// fills one from file sections for NewMappedStore. Slices handed to
// NewMappedStore may alias mapped read-only memory and must never be
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
	// Count+1 entries and starts at 0). BuildColumnar leaves these nil —
	// the segment writer marshals rows itself; NewMappedStore requires them.
	Rows    []byte
	RowOffs []uint64

	// AppendIdx maps sorted position -> append-order index, a permutation
	// of 0..Count-1 (the same per-row index the v1 frame format carries).
	// Nil from BuildColumnar, required by NewMappedStore.
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

// BuildColumnar builds the columnar state of a snapshot over points that
// are already in canonical order: the segment compactor's input. The slice
// is used as is, with no copy and no re-sort. Every posting list assumes
// that order, so unsorted points are an error. Rows, RowOffs, and
// AppendIdx are left for the caller — the points do not know their append
// order, the writer does.
func BuildColumnar(sorted []Point) (*Columnar, error) {
	for i := 1; i < len(sorted); i++ {
		if pointLess(&sorted[i], &sorted[i-1]) {
			return nil, fmt.Errorf("dataset: BuildColumnar: point %d sorts before point %d", i, i-1)
		}
	}
	return columnsOf(sorted), nil
}

// columnsOf interns sorted points into a Columnar: the symbol and typed
// columns plus the distinct-name lists. Symbols are interned per row in
// the order app, SKU, alias, input, which fixes their IDs and so the bytes
// the compactor writes for the same points.
func columnsOf(sorted []Point) *Columnar {
	n := len(sorted)
	c := &Columnar{
		Count:  n,
		App:    make([]uint32, n),
		SKU:    make([]uint32, n),
		Alias:  make([]uint32, n),
		Input:  make([]uint32, n),
		Nodes:  make([]int32, n),
		Exec:   make([]float64, n),
		Cost:   make([]float64, n),
		Failed: make([]uint64, (n+63)/64),
	}
	ids := make(map[string]uint32)
	intern := func(s string) uint32 {
		id, ok := ids[s]
		if !ok {
			id = uint32(len(c.Syms))
			ids[s] = id
			c.Syms = append(c.Syms, s)
		}
		return id
	}
	appSeen := make(map[string]bool)
	for i := range sorted {
		p := &sorted[i]
		c.App[i] = intern(strings.ToLower(p.AppName))
		c.SKU[i] = intern(strings.ToLower(p.SKU))
		c.Alias[i] = intern(strings.ToLower(p.SKUAlias))
		c.Input[i] = intern(p.InputDesc)
		c.Nodes[i] = int32(p.NNodes)
		c.Exec[i] = p.ExecTimeSec
		c.Cost[i] = p.CostUSD
		if p.Failed {
			c.Failed[i>>6] |= 1 << (uint(i) & 63)
		}
		if !appSeen[p.AppName] {
			appSeen[p.AppName] = true
			c.Apps = append(c.Apps, p.AppName)
		}
		// The sorted order is (alias, input, nodes), so distinct aliases
		// arrive in runs; inputs recur across aliases and dedup below.
		if len(c.SKUAliases) == 0 || c.SKUAliases[len(c.SKUAliases)-1] != p.SKUAlias {
			c.SKUAliases = append(c.SKUAliases, p.SKUAlias)
		}
	}
	inputSeen := make([]bool, len(c.Syms))
	for _, id := range c.Input {
		if !inputSeen[id] {
			inputSeen[id] = true
			c.Inputs = append(c.Inputs, c.Syms[id])
		}
	}
	sort.Strings(c.Apps)
	sort.Strings(c.Inputs)
	return c
}

// The indexed fields: each has a posting list and a hot slot per symbol ID.
const (
	fieldApp = iota
	fieldSKU // full name or alias
	fieldInput
	numFields
)

// colFilter is a CanonicalFilter with its string constraints resolved to
// this snapshot's symbol IDs, so matching a candidate does no string work
// at all (tags excepted — they stay a residual map probe on the row).
type colFilter struct {
	c      *CanonicalFilter
	id     [numFields]uint32
	has    [numFields]bool
	absent bool // a constrained value is not in the symbol table: nothing matches
}

// resolve looks the filter's string constraints up in the snapshot's
// symbol table. A constrained value absent from the table matches nothing
// in any column, which absent records so callers skip the scan entirely.
func (sn *Snapshot) resolve(c *CanonicalFilter) colFilter {
	cf := colFilter{c: c}
	for f, s := range [numFields]string{c.app, c.sku, c.input} {
		if s == "" {
			continue
		}
		id, ok := sn.syms[s]
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
func (sn *Snapshot) matchAt(cf *colFilter, i int) bool {
	col := sn.col
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
func (sn *Snapshot) frontPositions(cf *colFilter) []int32 {
	pos := sn.matchPositions(cf)
	cand := pos[:0] // pareto.Front skips failed runs: drop them in place
	for _, i := range pos {
		if !sn.col.failedBit(int(i)) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	cost := sn.col.Cost
	sortByTimeCost(cand, sn.col.Exec, cost)
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

// hotFront is the per-snapshot memo of the cold advice path for one hot
// filter: the surviving positions in by-time order plus both presentation
// orders as JSON array fragments the serving layer stitches into its
// envelope without reflection. Everything inside is written once, under
// once, on first use, and immutable afterwards.
type hotFront struct {
	once sync.Once

	pos                []int32 // surviving positions, by-time order
	timeJSON, costJSON []byte
	err                error // a survivor's row could not marshal
}

// json returns the memoized fragment in the requested order, computing the
// front on first use. Every filter that maps to this slot selects the same
// rows, so whichever one arrives first computes it.
func (hf *hotFront) json(sn *Snapshot, cf *colFilter, byCost bool) ([]byte, error) {
	hf.compute(sn, cf)
	return hf.pick(byCost)
}

// pick returns the computed fragment in the requested order.
func (hf *hotFront) pick(byCost bool) ([]byte, error) {
	if byCost {
		return hf.costJSON, hf.err
	}
	return hf.timeJSON, hf.err
}

func (hf *hotFront) compute(sn *Snapshot, cf *colFilter) {
	hf.once.Do(func() {
		hf.pos = sn.frontPositions(cf)
		hf.timeJSON, hf.err = frontJSON(hf.pos, false, sn.rowJSON)
		if hf.err == nil {
			hf.costJSON, hf.err = frontJSON(hf.pos, true, sn.rowJSON)
		}
	})
}

// hotSlot returns the memo slot of a hot filter and nil for any other. The
// hot filters are the unfiltered view and every filter on exactly one of
// app, SKU (full name or alias) and input, with no node bound, tag or
// IncludeFailed: one slot per (field, symbol ID), so how many there are is
// bounded by the symbol table, not by the request stream. Invalidation is
// the snapshot lifecycle itself: a generation roll builds a new snapshot
// with empty slots, and the old ones are garbage the moment the last
// reader drops the old snapshot.
func (sn *Snapshot) hotSlot(cf *colFilter) *hotFront {
	c := cf.c
	if cf.absent || c.includeFailed || c.minNodes > 0 || c.maxNodes > 0 || len(c.tags) > 0 {
		return nil
	}
	hf, fields := &sn.hotAll, 0
	for f, has := range cf.has {
		if has {
			hf, fields = &sn.hot[f][cf.id[f]], fields+1
		}
	}
	if fields > 1 {
		return nil
	}
	return hf
}

// frontOf returns the filter's front positions in by-time order: the hot
// slot's memo, shared and read-only, when the filter is hot, else a fresh
// front.
func (sn *Snapshot) frontOf(cf *colFilter) []int32 {
	if hf := sn.hotSlot(cf); hf != nil {
		hf.compute(sn, cf)
		return hf.pos
	}
	return sn.frontPositions(cf)
}

// frontJSON renders front positions (by-time order) as a JSON array of
// their rows: the same bytes json.Marshal produces for the points. On a
// mapped snapshot each row's bytes are spliced from the row section, so no
// row is decoded; on a heap snapshot only the survivors are marshalled. A
// front's cost is strictly decreasing in time order, so the cost order is
// the time order's exact reversal — no second sort, and no tie-break to
// disagree on. A row that cannot marshal (e.g. a NaN metric) is an error.
func frontJSON(pos []int32, byCost bool, rowJSON func(int32) ([]byte, error)) ([]byte, error) {
	buf := []byte{'['}
	for i := range pos {
		if i > 0 {
			buf = append(buf, ',')
		}
		p := pos[i]
		if byCost {
			p = pos[len(pos)-1-i]
		}
		row, err := rowJSON(p)
		if err != nil {
			return nil, err
		}
		buf = append(buf, row...)
	}
	return append(buf, ']'), nil
}

// frontRows materializes front positions (by-time order) in the requested
// order.
func frontRows(pos []int32, byCost bool, row func(int32) *Point) []Point {
	if len(pos) == 0 {
		return nil
	}
	rows := make([]Point, len(pos))
	for i, p := range pos {
		if byCost {
			rows[len(rows)-1-i] = *row(p)
		} else {
			rows[i] = *row(p)
		}
	}
	return rows
}

// Advice returns the advice rows of any filter in the requested order:
// the Pareto front of its matches, equal to pareto.Advice(sn.Select(f))
// row for row. A hot filter answers from its memoized front; any other
// filter computes the same front from the columns without storing it. Only
// the surviving rows are materialized, so on a mapped snapshot only the
// chunks that hold them are decoded. The rows are a fresh slice on every
// call; the query engine memoizes them per generation.
func (sn *Snapshot) Advice(c *CanonicalFilter, byCost bool) []Point {
	if d := sn.delta; d != nil {
		return frontRows(d.frontRefs(c), byCost, d.row)
	}
	cf := sn.resolve(c)
	return frontRows(sn.frontOf(&cf), byCost, sn.row)
}

// AdviceJSON returns the advice rows of any filter as a JSON array
// fragment, byte-identical to json.Marshal of Advice's rows ("[]" when
// none survive), plus the row count. A hot filter answers from its
// memoized fragment, which is shared and must not be modified; any other
// filter renders a fresh one from the same front. On a mapped snapshot the
// fragment is spliced from the persisted row bytes, so no row is decoded.
// A survivor that cannot marshal is an error.
func (sn *Snapshot) AdviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, error) {
	if sn.delta != nil {
		return sn.delta.adviceJSON(c, byCost)
	}
	cf := sn.resolve(c)
	if hf := sn.hotSlot(&cf); hf != nil {
		b, err := hf.json(sn, &cf, byCost)
		return b, len(hf.pos), err
	}
	pos := sn.frontPositions(&cf)
	b, err := frontJSON(pos, byCost, sn.rowJSON)
	return b, len(pos), err
}

// HotAdviceJSON is AdviceJSON restricted to hot filters: ok=false when the
// filter is not hot or its rows cannot marshal. It reports whether a
// request is answered from the memo without computing a front.
func (sn *Snapshot) HotAdviceJSON(c *CanonicalFilter, byCost bool) ([]byte, int, bool) {
	if sn.delta != nil {
		return sn.delta.hotAdviceJSON(c, byCost)
	}
	cf := sn.resolve(c)
	hf := sn.hotSlot(&cf)
	if hf == nil {
		return nil, 0, false
	}
	b, err := hf.json(sn, &cf, byCost)
	return b, len(hf.pos), err == nil
}
