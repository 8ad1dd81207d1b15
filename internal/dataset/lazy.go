package dataset

// This file implements snapshots served over persisted columnar state. A
// storage backend that persisted a snapshot's columnar state (format v2
// segments) hands it back as a Columnar — typed slices aliasing the
// file's bytes, mapped or read — and NewMappedStore validates it and
// serves it through the same constructor a heap build uses: no JSON
// re-parse, no re-sort, no column rebuild. Row structs are materialized
// lazily in fixed-size chunks the first time a query actually touches one,
// so a cold process serves columnar filters, and hot fronts spliced from
// the row bytes, without ever decoding most rows.
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

// lazyChunkRows is the row-materialization granularity: one touched row
// decodes its whole chunk, so point queries pay a small bounded batch and
// full scans amortize the sync.Once per 1024 rows instead of per row.
const lazyChunkRows = 1024

// lazyChunk guards the one-time decode of one chunk of rows.
type lazyChunk struct{ once sync.Once }

// lazyRows defers row materialization for a mapped snapshot: sorted[i]
// starts as the zero Point and is decoded from the row bytes (col.Rows) on
// first touch, chunk by chunk. Only the per-chunk sync.Once state and the
// sticky decode error ever change.
type lazyRows struct {
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
func (sn *Snapshot) rowJSON(i int32) ([]byte, error) {
	if sn.lazy != nil {
		return sn.col.Rows[sn.col.RowOffs[i]:sn.col.RowOffs[i+1]], nil
	}
	return json.Marshal(&sn.sorted[i])
}

// row returns sorted[i], materialized.
func (sn *Snapshot) row(i int32) *Point {
	sn.ensureRow(int(i))
	return &sn.sorted[i]
}

// rowKey decodes the fields pointLess reads from mapped row i's bytes,
// leaving its chunk untouched. A row that fails to decode keys as the zero
// Point its chunk would serve.
func (sn *Snapshot) rowKey(i int) Point {
	var k struct {
		SKUAlias  string `json:"sku_alias"`
		InputDesc string `json:"input_desc"`
		NNodes    int    `json:"nnodes"`
	}
	if err := json.Unmarshal(sn.col.Rows[sn.col.RowOffs[i]:sn.col.RowOffs[i+1]], &k); err != nil {
		return Point{}
	}
	return Point{SKUAlias: k.SKUAlias, InputDesc: k.InputDesc, NNodes: k.NNodes}
}

func (sn *Snapshot) decodeChunk(c int) {
	lz, rows, offs := sn.lazy, sn.col.Rows, sn.col.RowOffs
	lo := c * lazyChunkRows
	hi := lo + lazyChunkRows
	if hi > len(sn.sorted) {
		hi = len(sn.sorted)
	}
	for i := lo; i < hi; i++ {
		if err := json.Unmarshal(rows[offs[i]:offs[i+1]], &sn.sorted[i]); err != nil {
			// CRC verified these bytes, so this can only be a writer bug;
			// record it (sticky) and leave the row zero rather than serve a
			// partially decoded struct.
			sn.sorted[i] = Point{}
			lz.recordErr(fmt.Errorf("dataset: mapped row %d: %w", i, err))
		}
	}
}

// NewMappedStore builds a store whose base snapshot is constructed
// directly over persisted columnar state — the zero-copy cold-start path.
// The returned store serves Snapshot queries immediately without decoding
// rows. Appends become the delta over that base: a roll never decodes or
// copies a base row, and only a fold (see delta.go) decodes them all,
// once. Validation failures return an error so callers can rebuild from
// the rows instead.
//
// The store's generation is the log position, c.Count: the same
// generation a store that appended the same points reports.
func NewMappedStore(c *Columnar) (*Store, error) {
	sn, err := newMappedSnapshot(c)
	if err != nil {
		return nil, err
	}
	return &Store{base: sn, gen: sn.gen, snap: sn}, nil
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

	lazy := &lazyRows{chunks: make([]lazyChunk, (n+lazyChunkRows-1)/lazyChunkRows)}
	sn := newSnapshot(c, make([]Point, n), lazy, uint64(n))
	if len(sn.syms) != len(c.Syms) {
		for id, s := range c.Syms {
			if sn.syms[s] != uint32(id) { // a later duplicate took the entry
				return nil, fmt.Errorf("dataset: mapped columnar: duplicate symbol %q", s)
			}
		}
	}
	return sn, nil
}
