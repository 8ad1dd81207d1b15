package dataset

import (
	"sort"
	"strconv"
	"strings"
)

// This file implements the read-optimized side of the store: immutable
// Snapshots holding the points in canonical (SKU alias, input, nodes) order
// with inverted indexes by application, SKU, and input. A snapshot is built
// at most once per store generation and shared by every concurrent reader,
// so the advice/plot serving path never contends with collectors appending.
//
// Ordering contract: Select returns points sorted by (SKUAlias, InputDesc,
// NNodes), ties broken by append order (stable). The scan baseline
// (SelectScan) and the indexed path agree exactly; the property test in
// snapshot_test.go holds them to it.

// PointLess reports the canonical (SKU alias, input, nodes) order. Storage
// backends sort compacted snapshot segments with it so a seeded store's
// first Snapshot build reuses the on-disk order verbatim.
func PointLess(a, b *Point) bool { return pointLess(a, b) }

// pointLess is the canonical (SKU alias, input, nodes) order shared by the
// sorted snapshot and the scan baseline. Equal keys compare as "not less" so
// stable sorts and merges preserve append order.
func pointLess(a, b *Point) bool {
	if a.SKUAlias != b.SKUAlias {
		return a.SKUAlias < b.SKUAlias
	}
	if a.InputDesc != b.InputDesc {
		return a.InputDesc < b.InputDesc
	}
	return a.NNodes < b.NNodes
}

// tagPair is one canonicalized tag constraint.
type tagPair struct{ k, v string }

// CanonicalFilter is a Filter pre-processed for repeated matching: the
// case-insensitive fields are lowercased once, and the tag map is flattened
// into a sorted slice, so matching a point does no map iteration. It also
// renders a canonical cache key, which the query engine combines with the
// store generation.
type CanonicalFilter struct {
	app   string // lowercased AppName; "" matches all
	sku   string // lowercased SKU name or alias; "" matches all
	input string // exact InputDesc; "" matches all

	minNodes, maxNodes int
	tags               []tagPair
	includeFailed      bool
}

// Canonical folds the filter once for repeated matching and cache keying.
func (f Filter) Canonical() CanonicalFilter {
	c := CanonicalFilter{
		app:           strings.ToLower(f.AppName),
		sku:           strings.ToLower(f.SKU),
		input:         f.InputDesc,
		minNodes:      f.MinNodes,
		maxNodes:      f.MaxNodes,
		includeFailed: f.IncludeFailed,
	}
	if len(f.Tags) > 0 {
		c.tags = make([]tagPair, 0, len(f.Tags))
		for k, v := range f.Tags {
			c.tags = append(c.tags, tagPair{k, v})
		}
		sort.Slice(c.tags, func(i, j int) bool { return c.tags[i].k < c.tags[j].k })
	}
	return c
}

// Match reports whether a point passes the canonicalized filter. App and
// SKU compare as strings.ToLower keys, the same keys the snapshot's indexes
// and symbol columns use, so the scan baseline agrees with the indexed
// Select on every string (strings.EqualFold would not: it folds "ſ" to "s"
// and final "ς" to "σ", which lowercasing does not).
func (c *CanonicalFilter) Match(p *Point) bool {
	if !c.includeFailed && p.Failed {
		return false
	}
	if c.app != "" && c.app != strings.ToLower(p.AppName) {
		return false
	}
	if c.sku != "" && c.sku != strings.ToLower(p.SKU) && c.sku != strings.ToLower(p.SKUAlias) {
		return false
	}
	if c.input != "" && c.input != p.InputDesc {
		return false
	}
	if c.minNodes > 0 && p.NNodes < c.minNodes {
		return false
	}
	if c.maxNodes > 0 && p.NNodes > c.maxNodes {
		return false
	}
	for _, t := range c.tags {
		if p.Tags[t.k] != t.v {
			return false
		}
	}
	return true
}

// Key renders the canonical filter as a deterministic cache-key fragment:
// filters that select the same points (up to case folding and tag order)
// render the same key, and distinct filters never collide — user-supplied
// strings are quoted so embedded separators cannot forge another filter's
// key.
func (c *CanonicalFilter) Key() string {
	var b strings.Builder
	b.WriteString("app=")
	b.WriteString(strconv.Quote(c.app))
	b.WriteString("|sku=")
	b.WriteString(strconv.Quote(c.sku))
	b.WriteString("|in=")
	b.WriteString(strconv.Quote(c.input))
	b.WriteString("|n=")
	b.WriteString(strconv.Itoa(c.minNodes))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(c.maxNodes))
	if c.includeFailed {
		b.WriteString("|failed")
	}
	for _, t := range c.tags {
		b.WriteString("|t:")
		b.WriteString(strconv.Quote(t.k))
		b.WriteByte('=')
		b.WriteString(strconv.Quote(t.v))
	}
	return b.String()
}

// Snapshot is an immutable, read-optimized view of a store at one
// generation: the points in canonical sorted order plus inverted indexes.
// Snapshots are never modified after construction, so any number of
// goroutines may query one concurrently, and queries never block appends.
type Snapshot struct {
	gen uint64
	n   int // append-order points covered, for merge amortization

	sorted []Point

	// Posting lists of positions into sorted, ascending, so index probes
	// return points already in canonical order. Keys are lowercased for the
	// case-insensitive fields.
	byApp   map[string][]int32
	bySKU   map[string][]int32 // both full name and alias key the same list
	byInput map[string][]int32

	apps   []string // distinct AppNames (original case), sorted
	skus   []string // distinct SKUAliases (original case), sorted
	inputs []string // distinct InputDescs, sorted

	// col is the struct-of-arrays mirror of sorted (see columnar.go):
	// interned symbol IDs and typed columns, so matchPositions compares
	// uint32s over contiguous memory instead of case-folding strings per
	// candidate. Immutable after build, like the rest of the snapshot.
	col columns

	// hot maps CanonicalFilter.Key() of the top-K single-field filters to
	// their Pareto fronts and serialized advice rows. The map is immutable
	// after build; each entry computes at most once, on first use (see
	// hotFront).
	hot map[string]*hotFront

	// lazy, when non-nil, defers row materialization (mmap-backed
	// snapshots): sorted[i] starts zero and is decoded from the row bytes
	// chunk-by-chunk on first touch (see lazy.go). Every read of sorted[i]
	// must go through ensureRow(i) first.
	lazy *lazyRows

	// mapRef pins whatever owns the memory the columns and row bytes may
	// alias — an mmap region whose finalizer unmaps it — for the
	// snapshot's lifetime.
	mapRef any
}

// Generation identifies the store state the snapshot was built from.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Len returns the number of points in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.sorted) }

// Apps lists distinct application names present, sorted.
func (sn *Snapshot) Apps() []string {
	out := make([]string, len(sn.apps))
	copy(out, sn.apps)
	return out
}

// SKUAliases lists distinct SKU aliases present, sorted.
func (sn *Snapshot) SKUAliases() []string {
	out := make([]string, len(sn.skus))
	copy(out, sn.skus)
	return out
}

// Inputs lists distinct input descriptions present, sorted.
func (sn *Snapshot) Inputs() []string {
	out := make([]string, len(sn.inputs))
	copy(out, sn.inputs)
	return out
}

// postings returns the candidate positions for the filter's indexed
// fields: the smallest applicable posting list intersected with the
// others (all lists are ascending, so the intersection is a linear merge
// that preserves canonical order). The second result is false when the
// filter constrains none of app, SKU and input — empty, tag-only and
// node-bound-only filters — and every row is a candidate.
func (sn *Snapshot) postings(c *CanonicalFilter) ([]int32, bool) {
	var lists [][]int32
	if c.app != "" {
		lists = append(lists, sn.byApp[c.app])
	}
	if c.sku != "" {
		lists = append(lists, sn.bySKU[c.sku])
	}
	if c.input != "" {
		lists = append(lists, sn.byInput[c.input])
	}
	if len(lists) == 0 {
		return nil, false
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, next := range lists[1:] {
		if len(out) == 0 {
			break
		}
		out = intersectPostings(out, next)
	}
	return out, true
}

// intersectPostings intersects two ascending posting lists. The result can
// be no larger than the smaller input, so that is all it allocates.
func intersectPostings(a, b []int32) []int32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]int32, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// matchPositions returns the positions of the points passing the filter,
// ascending and so in canonical order. It walks the smallest posting list
// of the constrained indexed fields, or every row when the filter
// constrains none of them, evaluating only the residual predicates per
// candidate. The result is always a fresh slice, so callers may filter it
// in place.
func (sn *Snapshot) matchPositions(c *CanonicalFilter) []int32 {
	cf, ok := sn.resolve(c)
	if !ok {
		return nil // a constrained symbol is absent: nothing can match
	}
	list, indexed := sn.postings(c)
	if !indexed {
		out := make([]int32, 0, len(sn.sorted))
		for i := range sn.sorted {
			if sn.matchAt(&cf, i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	out := make([]int32, 0, len(list))
	for _, i := range list {
		if sn.matchAt(&cf, int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// Select returns points passing the filter in canonical (SKU alias, input,
// nodes) order. The candidate walk runs first, so the rows are copied once,
// into a slice of their final size.
func (sn *Snapshot) Select(f Filter) []Point {
	c := f.Canonical()
	pos := sn.matchPositions(&c)
	if len(pos) == 0 {
		return nil // nil, not an empty non-nil slice, like the scan baseline
	}
	out := make([]Point, len(pos))
	for k, i := range pos {
		sn.ensureRow(int(i))
		out[k] = sn.sorted[i]
	}
	return out
}

// GroupSeries groups filtered points into plot series. Select already
// returns (SKU alias, input, nodes) order, so each (alias, input) group is
// one contiguous run of the selection: the groups are subslices of a
// single allocation, not per-point map appends. Callers treat the series
// as read-only (the engine's memoized maps already impose that), so the
// shared backing array is safe; the three-index subslice makes a stray
// append reallocate instead of clobbering the next group.
func (sn *Snapshot) GroupSeries(f Filter) map[SeriesKey][]Point {
	sel := sn.Select(f)
	out := make(map[SeriesKey][]Point)
	for start := 0; start < len(sel); {
		end := start + 1
		for end < len(sel) && sel[end].SKUAlias == sel[start].SKUAlias && sel[end].InputDesc == sel[start].InputDesc {
			end++
		}
		k := SeriesKey{SKUAlias: sel[start].SKUAlias, InputDesc: sel[start].InputDesc}
		out[k] = sel[start:end:end]
		start = end
	}
	return out
}

// buildSnapshot constructs the snapshot for points at gen. When prev covers
// a prefix of points (the append-only store guarantees it), only the new
// suffix is sorted and merged with prev's already-sorted slice, so a
// snapshot rebuild after k appends costs O(k log k + n) instead of
// O(n log n).
func buildSnapshot(prev *Snapshot, points []Point, gen uint64) *Snapshot {
	sn := &Snapshot{gen: gen, n: len(points)}
	var sortedPrefix []Point
	covered := 0
	if prev != nil && prev.n <= len(points) {
		sortedPrefix = prev.sorted
		covered = prev.n
	}
	fresh := make([]Point, len(points)-covered)
	copy(fresh, points[covered:])
	sort.SliceStable(fresh, func(i, j int) bool { return pointLess(&fresh[i], &fresh[j]) })
	sn.sorted = mergeSorted(sortedPrefix, fresh)
	sn.buildIndexes()
	sn.buildHotFronts()
	return sn
}

// mergeSorted stably merges two sorted slices; on equal keys the left
// (earlier-appended) element wins, preserving append order.
func mergeSorted(a, b []Point) []Point {
	if len(b) == 0 {
		return a
	}
	out := make([]Point, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if pointLess(&b[j], &a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func (sn *Snapshot) buildIndexes() {
	n := len(sn.sorted)
	sn.byApp = make(map[string][]int32)
	sn.bySKU = make(map[string][]int32)
	sn.byInput = make(map[string][]int32)
	sn.col = columns{
		syms:   make(map[string]uint32),
		app:    make([]uint32, n),
		sku:    make([]uint32, n),
		alias:  make([]uint32, n),
		input:  make([]uint32, n),
		nodes:  make([]int32, n),
		exec:   make([]float64, n),
		cost:   make([]float64, n),
		failed: make([]uint64, (n+63)/64),
	}
	appSeen := make(map[string]bool)
	for i := range sn.sorted {
		p := &sn.sorted[i]
		pos := int32(i)
		app := strings.ToLower(p.AppName)
		sn.byApp[app] = append(sn.byApp[app], pos)
		sku := strings.ToLower(p.SKU)
		sn.bySKU[sku] = append(sn.bySKU[sku], pos)
		alias := strings.ToLower(p.SKUAlias)
		if alias != sku {
			sn.bySKU[alias] = append(sn.bySKU[alias], pos)
		}
		sn.byInput[p.InputDesc] = append(sn.byInput[p.InputDesc], pos)
		sn.col.app[i] = sn.col.intern(app)
		sn.col.sku[i] = sn.col.intern(sku)
		sn.col.alias[i] = sn.col.intern(alias)
		sn.col.input[i] = sn.col.intern(p.InputDesc)
		sn.col.nodes[i] = int32(p.NNodes)
		sn.col.exec[i] = p.ExecTimeSec
		sn.col.cost[i] = p.CostUSD
		if p.Failed {
			sn.col.failed[i>>6] |= 1 << (uint(i) & 63)
		}
		if !appSeen[p.AppName] {
			appSeen[p.AppName] = true
			sn.apps = append(sn.apps, p.AppName)
		}
		// The sorted order is (alias, input, nodes), so distinct aliases and
		// per-alias distinct inputs arrive in runs; inputs still need a
		// global dedup since one input recurs across aliases.
		if len(sn.skus) == 0 || sn.skus[len(sn.skus)-1] != p.SKUAlias {
			sn.skus = append(sn.skus, p.SKUAlias)
		}
	}
	sn.inputs = make([]string, 0, len(sn.byInput))
	for in := range sn.byInput {
		sn.inputs = append(sn.inputs, in)
	}
	sort.Strings(sn.apps)
	sort.Strings(sn.inputs)
}
