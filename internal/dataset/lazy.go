package dataset

// This file implements snapshots served over persisted columnar state. A
// storage backend that persisted a snapshot's columnar state (format v2
// segments) hands it back as a Columnar — typed slices aliasing the
// file's bytes, mapped or read — and NewMappedStore builds a serving
// Snapshot directly over them: no JSON re-parse, no re-sort, no
// buildIndexes column rebuild. Row structs are materialized lazily in
// fixed-size chunks the first time a query actually touches one, so a cold
// process serves columnar filters, and hot fronts spliced from the row
// bytes, without ever decoding most rows.
//
// Integrity model: the storage layer CRC-verifies every section before
// handing it here, and NewMappedStore re-validates the structural
// invariants (lengths, the append-index permutation, symbol and position
// bounds). What is deliberately not re-checked is the canonical sort order
// of the rows — that would force the full decode this path exists to skip.
// The CRC pins the bytes to what the compactor wrote, and the compactor's
// BuildColumnar refuses rows that are not sorted. A row that still fails
// to decode is served as a zero Point and recorded; Store.Err and
// Store.Marshal report it.

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// Columnar is the flat, storage-ready form of a snapshot's read-optimized
// state, used in both directions: BuildColumnar fills it from sorted
// points for the segment compactor to serialize, and the storage load path
// fills it from file sections for NewMappedStore. Slices handed to
// NewMappedStore may alias mapped read-only memory and must never be
// written through; string fields are always heap strings.
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
	// uint32 column cells refer to.
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
	// alias (an mmap region with a munmap finalizer); the snapshot holds it
	// for its lifetime.
	Ref any
}

// BuildColumnar builds the columnar state of a snapshot over points that
// are already in canonical order: the segment compactor's input. The slice
// is used as is, with no copy and no re-sort, and the columns share it
// read-only. Every posting list assumes that order, so unsorted points are
// an error. Rows, RowOffs, and AppendIdx are left for the caller — the
// points do not know their append order, the writer does.
func BuildColumnar(sorted []Point) (*Columnar, error) {
	for i := 1; i < len(sorted); i++ {
		if pointLess(&sorted[i], &sorted[i-1]) {
			return nil, fmt.Errorf("dataset: BuildColumnar: point %d sorts before point %d", i, i-1)
		}
	}
	sn := &Snapshot{n: len(sorted), sorted: sorted}
	sn.buildIndexes()
	c := &Columnar{
		Count:      len(sn.sorted),
		Syms:       make([]string, len(sn.col.syms)),
		App:        sn.col.app,
		SKU:        sn.col.sku,
		Alias:      sn.col.alias,
		Input:      sn.col.input,
		Nodes:      sn.col.nodes,
		Exec:       sn.col.exec,
		Cost:       sn.col.cost,
		Failed:     sn.col.failed,
		Apps:       sn.apps,
		SKUAliases: sn.skus,
		Inputs:     sn.inputs,
	}
	for s, id := range sn.col.syms {
		c.Syms[id] = s
	}
	return c, nil
}

// lazyChunkRows is the row-materialization granularity: one touched row
// decodes its whole chunk, so point queries pay a small bounded batch and
// full scans amortize the sync.Once per 1024 rows instead of per row.
const lazyChunkRows = 1024

// lazyChunk guards the one-time decode of one chunk of rows.
type lazyChunk struct{ once sync.Once }

// lazyRows defers row materialization for a mapped snapshot: sorted[i]
// starts as the zero Point and is decoded from the row bytes on first
// touch, chunk by chunk. All fields are immutable after construction
// except the per-chunk sync.Once state and the sticky decode error.
type lazyRows struct {
	data      []byte   // concatenated row JSON (may alias mapped memory)
	offs      []uint64 // len(sorted)+1 row bounds into data
	appendIdx []uint32 // sorted position -> append index permutation

	chunks []lazyChunk

	errOnce sync.Once
	err     atomic.Value // first decode failure; rows of a failed chunk stay zero
}

func (lz *lazyRows) recordErr(err error) {
	lz.errOnce.Do(func() { lz.err.Store(err) })
}

// firstErr returns the first recorded decode failure, or nil.
func (lz *lazyRows) firstErr() error {
	err, _ := lz.err.Load().(error)
	return err
}

// ensureRow materializes the chunk holding sorted[i]. A nil receiver path
// (non-mapped snapshots) is a single branch, so the hooks on the query
// paths cost nothing for heap-built snapshots.
func (sn *Snapshot) ensureRow(i int) {
	lz := sn.lazy
	if lz == nil {
		return
	}
	c := i / lazyChunkRows
	lz.chunks[c].once.Do(func() { sn.decodeChunk(c) })
}

// ensureAllRows materializes every row.
func (sn *Snapshot) ensureAllRows() {
	lz := sn.lazy
	if lz == nil {
		return
	}
	for c := range lz.chunks {
		lz.chunks[c].once.Do(func() { sn.decodeChunk(c) })
	}
}

// rowJSON returns the JSON encoding of sorted[i]. On a mapped snapshot
// that is the persisted row, which the writer produced with the same
// json.Marshal(&sorted[k]), so no row is decoded; on a heap snapshot it is
// a fresh marshal.
func (sn *Snapshot) rowJSON(i int) ([]byte, error) {
	if lz := sn.lazy; lz != nil {
		return lz.data[lz.offs[i]:lz.offs[i+1]], nil
	}
	return json.Marshal(&sn.sorted[i])
}

func (sn *Snapshot) decodeChunk(c int) {
	lz := sn.lazy
	lo := c * lazyChunkRows
	hi := lo + lazyChunkRows
	if hi > len(sn.sorted) {
		hi = len(sn.sorted)
	}
	for i := lo; i < hi; i++ {
		if err := json.Unmarshal(lz.data[lz.offs[i]:lz.offs[i+1]], &sn.sorted[i]); err != nil {
			// CRC verified these bytes, so this can only be a writer bug;
			// record it (sticky) and leave the row zero rather than serve a
			// partially decoded struct.
			sn.sorted[i] = Point{}
			lz.recordErr(fmt.Errorf("dataset: mapped row %d: %w", i, err))
		}
	}
}

// appendOrderPoints decodes every row and scatters them back to append
// order — the expansion a mapped store pays once, on the first operation
// that needs the append-order view (see Store.materializeBaseLocked).
func (sn *Snapshot) appendOrderPoints() []Point {
	sn.ensureAllRows()
	out := make([]Point, len(sn.sorted))
	if sn.lazy == nil {
		copy(out, sn.sorted)
		return out
	}
	for k, idx := range sn.lazy.appendIdx {
		out[idx] = sn.sorted[k]
	}
	return out
}

// NewMappedStore builds a store whose current snapshot is constructed
// directly over persisted columnar state — the zero-copy cold-start path.
// The returned store serves Snapshot queries immediately without decoding
// rows; appends work normally (the mapped snapshot becomes the merge
// prefix, expanded to append order on the first rebuild). Validation
// failures return an error so callers can rebuild from the rows instead.
//
// The store's generation is the log position, c.Count: the same
// generation a store that appended the same points reports.
func NewMappedStore(c *Columnar) (*Store, error) {
	sn, err := newMappedSnapshot(c)
	if err != nil {
		return nil, err
	}
	return &Store{base: sn, baseN: sn.n, gen: sn.gen, snap: sn}, nil
}

func newMappedSnapshot(c *Columnar) (*Snapshot, error) {
	n := c.Count
	if n < 0 {
		return nil, fmt.Errorf("dataset: mapped columnar: negative count %d", n)
	}
	if len(c.RowOffs) != n+1 || c.RowOffs[0] != 0 || len(c.AppendIdx) != n ||
		len(c.App) != n || len(c.SKU) != n || len(c.Alias) != n || len(c.Input) != n ||
		len(c.Nodes) != n || len(c.Exec) != n || len(c.Cost) != n ||
		len(c.Failed) != (n+63)/64 {
		return nil, fmt.Errorf("dataset: mapped columnar: inconsistent section lengths for %d points", n)
	}
	for k := 0; k < n; k++ {
		if c.RowOffs[k+1] < c.RowOffs[k] {
			return nil, fmt.Errorf("dataset: mapped columnar: row index not monotonic at %d", k)
		}
	}
	if c.RowOffs[n] != uint64(len(c.Rows)) {
		return nil, fmt.Errorf("dataset: mapped columnar: row index covers %d bytes, have %d", c.RowOffs[n], len(c.Rows))
	}
	seen := make([]uint64, (n+63)/64)
	for _, idx := range c.AppendIdx {
		if int(idx) >= n || seen[idx>>6]&(1<<(idx&63)) != 0 {
			return nil, fmt.Errorf("dataset: mapped columnar: append indexes are not a permutation")
		}
		seen[idx>>6] |= 1 << (idx & 63)
	}
	nsym := uint32(len(c.Syms))
	for i := 0; i < n; i++ {
		if c.App[i] >= nsym || c.SKU[i] >= nsym || c.Alias[i] >= nsym || c.Input[i] >= nsym {
			return nil, fmt.Errorf("dataset: mapped columnar: symbol id out of range at row %d", i)
		}
	}

	sn := &Snapshot{gen: uint64(n), n: n, sorted: make([]Point, n), mapRef: c.Ref}
	sn.lazy = &lazyRows{
		data:      c.Rows,
		offs:      c.RowOffs,
		appendIdx: c.AppendIdx,
		chunks:    make([]lazyChunk, (n+lazyChunkRows-1)/lazyChunkRows),
	}
	sn.col = columns{
		syms:   make(map[string]uint32, len(c.Syms)),
		app:    c.App,
		sku:    c.SKU,
		alias:  c.Alias,
		input:  c.Input,
		nodes:  c.Nodes,
		exec:   c.Exec,
		cost:   c.Cost,
		failed: c.Failed,
	}
	for id, s := range c.Syms {
		if _, dup := sn.col.syms[s]; dup {
			return nil, fmt.Errorf("dataset: mapped columnar: duplicate symbol %q", s)
		}
		sn.col.syms[s] = uint32(id)
	}

	// Posting lists reconstruct from the columns alone — same shape
	// buildIndexes produces, with the alias list folded into the SKU map
	// only when it differs from the full name.
	sn.byApp = make(map[string][]int32)
	sn.bySKU = make(map[string][]int32)
	sn.byInput = make(map[string][]int32)
	for i := 0; i < n; i++ {
		pos := int32(i)
		app := c.Syms[c.App[i]]
		sn.byApp[app] = append(sn.byApp[app], pos)
		sku := c.Syms[c.SKU[i]]
		sn.bySKU[sku] = append(sn.bySKU[sku], pos)
		if alias := c.Syms[c.Alias[i]]; alias != sku {
			sn.bySKU[alias] = append(sn.bySKU[alias], pos)
		}
		in := c.Syms[c.Input[i]]
		sn.byInput[in] = append(sn.byInput[in], pos)
	}
	sn.apps = append([]string(nil), c.Apps...)
	sn.skus = append([]string(nil), c.SKUAliases...)
	sn.inputs = append([]string(nil), c.Inputs...)

	sn.buildHotFronts()
	return sn, nil
}
