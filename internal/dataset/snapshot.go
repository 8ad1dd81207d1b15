package dataset

import (
	"sort"
	"strconv"
	"strings"
)

// This file implements the read-optimized side of the store: immutable
// Snapshots serving the points in canonical (SKU alias, input, nodes) order
// through columns and inverted indexes by application, SKU, and input,
// while each run holds its points once, in append order. A snapshot is built
// at most once per store generation and shared by every concurrent reader,
// so the advice/plot serving path never contends with collectors appending.
//
// Ordering contract: Select returns points sorted by (SKUAlias, InputDesc,
// NNodes), ties broken by append order (stable). The scan baseline
// (SelectScan) and the indexed path agree exactly; the property test in
// snapshot_test.go holds them to it.

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
// generation: a base run plus, when points were appended since the base,
// a delta run, served as one canonical order (see delta.go) without
// copying or re-indexing the base. The base is a columnar image, mapped
// from a v2 segment or built by a fold. Snapshots are never modified
// after construction, so any number of goroutines may query one
// concurrently, and queries never block appends.
type Snapshot struct {
	gen   uint64
	base  *run
	delta *run    // nil when nothing was appended since the base
	rank  []int32 // rank[k]: the base position delta position k merges before
}

// run is one immutable, indexed half of a snapshot: its points, held once
// in append order, served in canonical sorted order through the columns
// and inverted indexes. A nil *run is the empty delta of a base-only
// snapshot; resolve makes every query on it match nothing.
type run struct {
	// rows holds the points in append order: the row at canonical
	// position i is rows[col.AppendIdx[i]] (see row). A delta's are the
	// store's own appended points; a base's are the lazy decode target.
	rows []Point

	// col is the struct-of-arrays form of the run in canonical order (see
	// columnar.go): interned symbol IDs and typed columns, so
	// matchPositions compares uint32s over contiguous memory instead of
	// case-folding strings per candidate. On a mapped run its slices alias
	// the file's bytes, and col.Ref pins them for the run's lifetime.
	col *Columnar

	// syms inverts col.Syms: interned string -> symbol ID.
	syms map[string]uint32

	// post[field][id] lists, ascending, the positions whose field cell
	// holds symbol id, so index probes return points already in canonical
	// order. A position is listed under both its SKU and its alias symbol.
	post [numFields][][]int32

	// hotAll and hot[field][id] memoize the front positions of the
	// unfiltered view and of each single-field filter; each slot computes
	// at most once, on first use (see hotSlot).
	hotAll hotFront
	hot    [numFields][]hotFront

	// lazy, non-nil on a base and nil on a delta, defers row
	// materialization: a base's rows start zero and are decoded from the
	// row bytes chunk-by-chunk on first touch (see lazy.go). Every read of
	// a base row must go through ensureRow(i) first.
	lazy *lazyRows
}

// newRun is the one run constructor, for bases and deltas alike: it
// serves rows over c's columns, inverting the symbol table and building
// one posting list per (field, symbol ID). On a base lazy is non-nil.
func newRun(c *Columnar, rows []Point, lazy *lazyRows) *run {
	nsym := len(c.Syms)
	r := &run{rows: rows, col: c, lazy: lazy, syms: make(map[string]uint32, nsym)}
	for id, s := range c.Syms {
		r.syms[s] = uint32(id)
	}
	r.post[fieldApp] = postingLists(nsym, c.App)
	r.post[fieldSKU] = postingLists(nsym, c.SKU, c.Alias)
	r.post[fieldInput] = postingLists(nsym, c.Input)
	for f := range r.hot {
		r.hot[f] = make([]hotFront, nsym)
	}
	return r
}

// postingLists inverts one or two id columns into per-symbol posting
// lists: position i is listed once under each distinct id its cells hold.
// Lists are ascending and carved from one backing array.
func postingLists(nsym int, cols ...[]uint32) [][]int32 {
	first := cols[0]
	counts := make([]int, nsym)
	total := 0
	for k, col := range cols {
		for i, id := range col {
			if k == 0 || id != first[i] {
				counts[id]++
				total++
			}
		}
	}
	backing := make([]int32, total)
	lists := make([][]int32, nsym)
	off := 0
	for id, n := range counts {
		lists[id] = backing[off : off : off+n]
		off += n
	}
	for i := range first {
		for k, col := range cols {
			if id := col[i]; k == 0 || id != first[i] {
				lists[id] = append(lists[id], int32(i))
			}
		}
	}
	return lists
}

// Generation identifies the store state the snapshot was built from.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Len returns the number of points in the snapshot.
func (sn *Snapshot) Len() int { return sn.base.len() + sn.delta.len() }

func (r *run) len() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// Apps lists distinct application names present, sorted.
func (sn *Snapshot) Apps() []string {
	return sn.names(func(c *Columnar) []string { return c.Apps })
}

// SKUAliases lists distinct SKU aliases present, sorted.
func (sn *Snapshot) SKUAliases() []string {
	return sn.names(func(c *Columnar) []string { return c.SKUAliases })
}

// Inputs lists distinct input descriptions present, sorted.
func (sn *Snapshot) Inputs() []string {
	return sn.names(func(c *Columnar) []string { return c.Inputs })
}

// names merges one sorted distinct-name list of both halves into a fresh
// slice.
func (sn *Snapshot) names(list func(*Columnar) []string) []string {
	var d []string
	if sn.delta != nil {
		d = list(sn.delta.col)
	}
	return unionNames(list(sn.base.col), d)
}

// matchPositions returns the positions of the points passing the filter,
// ascending and so in canonical order. It walks the shortest posting list
// of the constrained indexed fields, or every row when the filter
// constrains none of them, evaluating the whole predicate per candidate
// on the columns. The result is always a fresh slice, so callers may
// filter it in place.
func (r *run) matchPositions(cf *colFilter) []int32 {
	if cf.absent {
		return nil
	}
	var list []int32
	indexed := false
	for f, has := range cf.has {
		if !has {
			continue
		}
		if l := r.post[f][cf.id[f]]; !indexed || len(l) < len(list) {
			list, indexed = l, true
		}
	}
	if !indexed {
		out := make([]int32, 0, len(r.rows))
		for i := range r.rows {
			if r.matchAt(cf, i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	out := make([]int32, 0, len(list))
	for _, i := range list {
		if r.matchAt(cf, int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// Select returns points passing the filter in canonical (SKU alias, input,
// nodes) order: each half's matches, merged by rank. The candidate walks
// run first, so the rows are copied once, into a slice of their final
// size.
func (sn *Snapshot) Select(f Filter) []Point {
	c := f.Canonical()
	b, d := sn.resolve(&c)
	bp, dp := sn.base.matchPositions(&b), sn.delta.matchPositions(&d)
	if len(bp)+len(dp) == 0 {
		return nil // nil, not an empty non-nil slice, like the scan baseline
	}
	out := make([]Point, 0, len(bp)+len(dp))
	for _, k := range dp {
		for ; len(bp) > 0 && bp[0] < sn.rank[k]; bp = bp[1:] {
			out = append(out, *sn.base.row(bp[0]))
		}
		out = append(out, *sn.delta.row(k))
	}
	for _, i := range bp {
		out = append(out, *sn.base.row(i))
	}
	return out
}

// upperBound returns the first position whose row sorts after p: the
// merge rank of a point appended after every row of this base. A probe of
// a materialized row compares its struct; any other probe decodes the sort
// key from the row's bytes, and no chunk is materialized.
func (r *run) upperBound(p *Point) int32 {
	return int32(sort.Search(len(r.rows), func(i int) bool {
		if r.lazy.known(i) {
			return pointLess(p, &r.rows[r.col.AppendIdx[i]])
		}
		k := r.rowKey(i)
		return pointLess(p, &k)
	}))
}
