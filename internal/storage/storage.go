// Package storage is the persistence engine behind the dataset: every
// collected point flows through the segment store the moment it is
// appended, and datasets reopen without a full reparse.
//
// SegmentStore is a binary segment log. Points are length-prefixed,
// CRC-checksummed frames appended to a write-ahead segment file with
// batched fsyncs; full segments are sealed immutable; a compaction pass
// folds sealed segments into a sorted snapshot segment from which
// dataset.Snapshot indexes rebuild without re-sorting; crash recovery
// truncates a torn tail frame and replays the rest. A point is
// acknowledged once Sync returns (Append batches fsyncs), and no
// acknowledged point is ever lost — a crash loses at most the
// unacknowledged tail.
//
// JSON Lines is an interchange format only: Convert imports a .jsonl file
// into a segment store and exports one back, and nothing else reads or
// writes it.
package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/fsatomic"
)

// Info describes a segment store's on-disk state.
type Info struct {
	// Format names the on-disk layout: always "segment".
	Format string `json:"format"`
	Path   string `json:"path"`
	// Points is the number of points currently stored.
	Points int `json:"points"`
	// Segments counts live log segment files.
	Segments int `json:"segments"`
	// SnapshotPoints is how many points the compacted snapshot segment
	// covers (0 when never compacted).
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
	fmt.Fprintf(&b, "bytes:           %d\n", i.Bytes)
	if i.Recovered {
		fmt.Fprintf(&b, "recovered:       torn tail truncated (%d bytes)\n", i.RecoveredBytes)
	}
	return b.String()
}

// OpenBackend opens the segment store at path (created lazily on the first
// append if missing). A path that exists but is not a directory is refused:
// a JSON Lines file is never opened as a store, only read by Convert.
func OpenBackend(path string) (*SegmentStore, error) {
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("storage: %s is a file, not a segment store directory", path)
	}
	return OpenSegments(path, nil)
}

// Open opens the segment store at path, loads it into a Store, and attaches
// the backend so every subsequent Store.Add appends through durably. The
// caller owns the backend handle and should Close it when done.
func Open(path string) (*dataset.Store, *SegmentStore, error) {
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

// Convert copies the dataset at src into a new dataset at dst. It returns
// the number of points copied and the length of a torn final line dropped
// from a JSON Lines source (see importJSONL). src is a segment store
// directory or a JSON Lines file; dst is written as JSON Lines when its
// name ends in ".jsonl" and as a compacted segment store otherwise. dst
// must not exist yet, and it appears only whole: a JSON Lines file is
// staged and renamed, a segment store is built beside it and renamed into
// place. Convert never writes to src.
func Convert(src, dst string) (n int, torn int64, err error) {
	if filepath.Clean(src) == filepath.Clean(dst) {
		return 0, 0, fmt.Errorf("storage: convert source and destination are the same path %q", src)
	}
	fi, err := os.Stat(src)
	if err != nil {
		return 0, 0, err
	}
	var st *dataset.Store
	if fi.IsDir() {
		from, err := OpenBackend(src)
		if err != nil {
			return 0, 0, err
		}
		defer from.Close()
		if st, err = from.Load(); err != nil {
			return 0, 0, err
		}
	} else if st, torn, err = importJSONL(src); err != nil {
		return 0, 0, err
	}
	pts := st.All()
	if err := st.Err(); err != nil {
		return 0, 0, err // never copy a row that failed to decode as a zero point
	}
	// Convert never merges into or replaces a dataset.
	if _, err := os.Lstat(dst); err == nil {
		return 0, 0, fmt.Errorf("storage: convert destination %q already exists", dst)
	}
	if strings.HasSuffix(dst, ".jsonl") {
		err = st.SaveFile(dst)
	} else {
		err = publishSegments(dst, pts)
	}
	if err != nil {
		return 0, 0, err
	}
	return len(pts), torn, nil
}

// importJSONL reads a JSON Lines dataset without writing to it. A crash
// mid-append can leave an unterminated final line that is not valid JSON;
// that torn tail is dropped and its length returned. An unterminated final
// line that is valid JSON is a complete record missing only its newline
// (hand-written files often end that way) and is kept. A whole line that
// fails to parse cannot come from a torn append: it is an error.
func importJSONL(path string) (*dataset.Store, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var torn int64
	cut := bytes.LastIndexByte(data, '\n') + 1
	if tail := data[cut:]; len(bytes.TrimSpace(tail)) > 0 && !json.Valid(tail) {
		torn, data = int64(len(tail)), data[:cut]
	}
	st, err := dataset.Unmarshal(data)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: %s: %w", path, err)
	}
	return st, torn, nil
}

// publishSegments builds a compacted segment store holding pts in the
// staging directory dst+".tmp", fsyncs it, and renames it onto dst, so a
// crash at any point leaves either no dst or a complete one. A staging
// directory left by a crashed convert was never published, holds nothing
// acknowledged, and is replaced here.
func publishSegments(dst string, pts []dataset.Point) (err error) {
	stage := dst + ".tmp"
	if err := os.RemoveAll(stage); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(stage)
		}
	}()
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return err
	}
	s, err := OpenSegments(stage, &SegmentOptions{SyncEvery: len(pts)})
	if err != nil {
		return err
	}
	for i := range pts {
		if err := s.Append(pts[i]); err != nil {
			s.Close()
			return err
		}
	}
	// Compact seals (fsyncs) the log, publishes the snapshot durably, and
	// deletes the folded log segments.
	if err := s.Compact(); err != nil {
		s.Close()
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	// Make the staging directory's entries (the snapshot in, the folded
	// log segments out) durable before it becomes visible as dst.
	d, err := os.Open(stage)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(stage, dst); err != nil {
		return err
	}
	return fsatomic.SyncDir(filepath.Dir(dst))
}
