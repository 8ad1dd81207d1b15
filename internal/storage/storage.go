// Package storage is the pluggable persistence engine behind the dataset:
// every collected point flows through a Backend the moment it is appended,
// and datasets reopen without a full reparse.
//
// Two backends implement the same contract:
//
//   - JSONL: the original one-file JSON Lines format, kept for
//     compatibility and import/export. Appends are O(1) line appends; a
//     torn final line (crash mid-append) is truncated at open.
//   - SegmentStore: a binary segment log. Points are length-prefixed,
//     CRC-checksummed frames appended to a write-ahead segment file with
//     batched fsyncs; full segments are sealed immutable; a compaction pass
//     folds sealed segments into a sorted snapshot segment from which
//     dataset.Snapshot indexes rebuild without re-sorting; crash recovery
//     truncates a torn tail frame and replays the rest.
//
// The durability contract is shared: a point is acknowledged once Sync
// returns (Append batches fsyncs), and no acknowledged point is ever lost —
// a crash loses at most the unacknowledged tail.
package storage

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"hpcadvisor/internal/dataset"
)

// Format names an on-disk dataset layout.
type Format string

// Supported formats.
const (
	FormatJSONL   Format = "jsonl"
	FormatSegment Format = "segment"
)

// ErrNoCompaction marks backends whose format has nothing to compact.
var ErrNoCompaction = errors.New("storage: format does not support compaction")

// Info describes a backend's on-disk state.
type Info struct {
	Format Format `json:"format"`
	Path   string `json:"path"`
	// Points is the number of points currently stored.
	Points int `json:"points"`
	// Segments counts live log segment files (always 0 for jsonl).
	Segments int `json:"segments"`
	// SnapshotPoints is how many points the compacted snapshot segment
	// covers (0 when never compacted, or for jsonl).
	SnapshotPoints int `json:"snapshot_points"`
	// SnapshotFormat is the snapshot segment's format version: 1 (row
	// frames) or 2 (columnar sections); 0 when there is no snapshot.
	SnapshotFormat int `json:"snapshot_format,omitempty"`
	// Columnar footprint of a v2 snapshot, by section group: the interned
	// symbol table, the typed columns (four uint32 string-id columns,
	// nodes, exec, cost), the failed bitmap, and the row data (row JSON +
	// row index + append indexes).
	SymbolTableBytes  int64 `json:"symbol_table_bytes,omitempty"`
	ColumnBytes       int64 `json:"column_bytes,omitempty"`
	FailedBitmapBytes int64 `json:"failed_bitmap_bytes,omitempty"`
	RowDataBytes      int64 `json:"row_data_bytes,omitempty"`
	// MmapServed reports whether the most recent Load served the snapshot
	// straight from an mmap (false on portable builds, which serve the same
	// columns over read bytes, after a row rebuild, or before any Load).
	MmapServed bool `json:"mmap_served,omitempty"`
	// Bytes is the total on-disk size.
	Bytes int64 `json:"bytes"`
	// Recovered reports that opening found and truncated a torn tail left
	// by a crash; RecoveredBytes is how much was cut.
	Recovered      bool  `json:"recovered,omitempty"`
	RecoveredBytes int64 `json:"recovered_bytes,omitempty"`
}

// String renders the info as the CLI's `dataset info` output.
func (i Info) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "format:          %s\n", i.Format)
	fmt.Fprintf(&b, "path:            %s\n", i.Path)
	fmt.Fprintf(&b, "points:          %d\n", i.Points)
	if i.Format == FormatSegment {
		fmt.Fprintf(&b, "log segments:    %d\n", i.Segments)
		fmt.Fprintf(&b, "snapshot points: %d\n", i.SnapshotPoints)
		if i.SnapshotFormat > 0 {
			fmt.Fprintf(&b, "snapshot format: v%d\n", i.SnapshotFormat)
		}
		if i.SnapshotFormat == 2 {
			fmt.Fprintf(&b, "  symbol table:  %d bytes\n", i.SymbolTableBytes)
			fmt.Fprintf(&b, "  columns:       %d bytes\n", i.ColumnBytes)
			fmt.Fprintf(&b, "  failed bitmap: %d bytes\n", i.FailedBitmapBytes)
			fmt.Fprintf(&b, "  row data:      %d bytes\n", i.RowDataBytes)
		}
		fmt.Fprintf(&b, "mmap served:     %t\n", i.MmapServed)
	}
	fmt.Fprintf(&b, "bytes:           %d\n", i.Bytes)
	if i.Recovered {
		fmt.Fprintf(&b, "recovered:       torn tail truncated (%d bytes)\n", i.RecoveredBytes)
	}
	return b.String()
}

// Backend is a durable dataset store. It doubles as a dataset.Sink, so a
// loaded store writes every Add through it. Backends are safe for
// concurrent use.
type Backend interface {
	// Append records one point at the tail of the log. Durability is
	// batched: the point is acknowledged once the next Sync (explicit or
	// batch-triggered) returns.
	Append(p dataset.Point) error
	// Sync makes every appended point durable.
	Sync() error
	// Load reads the full dataset into a fresh Store in append order. A
	// compacted snapshot is served over its persisted columns, so the first
	// snapshot build skips the O(n log n) re-sort.
	Load() (*dataset.Store, error)
	// Compact folds the log into its most read-optimized shape; backends
	// without one return ErrNoCompaction.
	Compact() error
	// Info describes the on-disk state.
	Info() (Info, error)
	// Format names the backend's layout.
	Format() Format
	// Close flushes, syncs, and releases the backend.
	Close() error
}

// DetectFormat decides the format of path: an existing directory is a
// segment store, an existing file is JSONL; a missing path is inferred
// from its name (a ".jsonl" suffix means JSONL, anything else a segment
// directory).
func DetectFormat(path string) Format {
	if fi, err := os.Stat(path); err == nil {
		if fi.IsDir() {
			return FormatSegment
		}
		return FormatJSONL
	}
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json") {
		return FormatJSONL
	}
	return FormatSegment
}

// OpenBackend opens (creating lazily on first append if missing) the
// backend at path, auto-detecting its format.
func OpenBackend(path string) (Backend, error) {
	switch DetectFormat(path) {
	case FormatJSONL:
		return OpenJSONL(path)
	default:
		return OpenSegments(path, nil)
	}
}

// Open opens the dataset at path, loads it into a Store, and attaches the
// backend so every subsequent Store.Add appends through durably. The caller
// owns the backend handle and should Close it when done.
func Open(path string) (*dataset.Store, Backend, error) {
	b, err := OpenBackend(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := b.Load()
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	st.Attach(b)
	return st, b, nil
}

// Convert copies the dataset at src into a new store at dst, converting
// between formats as the paths dictate, and returns the number of points
// converted. dst must not already hold data. A segment destination is
// compacted after the copy so it reopens through the fast snapshot path.
func Convert(src, dst string) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("storage: convert source and destination are the same path %q", src)
	}
	from, err := OpenBackend(src)
	if err != nil {
		return 0, err
	}
	defer from.Close()
	st, err := from.Load()
	if err != nil {
		return 0, err
	}
	pts := st.All()
	if err := st.Err(); err != nil {
		return 0, err // never copy a row that failed to decode as a zero point
	}
	to, err := OpenBackend(dst)
	if err != nil {
		return 0, err
	}
	if info, err := to.Info(); err != nil {
		to.Close()
		return 0, err
	} else if info.Points > 0 {
		to.Close()
		return 0, fmt.Errorf("storage: destination %q already holds %d points", dst, info.Points)
	}
	for i := range pts {
		if err := to.Append(pts[i]); err != nil {
			to.Close()
			return 0, err
		}
	}
	if err := to.Sync(); err != nil {
		to.Close()
		return 0, err
	}
	if err := to.Compact(); err != nil && !errors.Is(err, ErrNoCompaction) {
		to.Close()
		return 0, err
	}
	if err := to.Close(); err != nil {
		return 0, err
	}
	return len(pts), nil
}
