package storage

// BenchmarkStoreOpenCold measures the cold-open path: OpenSegments + Load +
// the first Snapshot over a ~100k-point store, for the two load rungs. v2
// is the columnar load every build takes (mmap on Linux, read bytes under
// the nommap tag); v1-parse is the row rebuild. Two more cases time the
// first read after the store has changed since its compaction, with the
// open itself untimed: v2-first-append is the next Snapshot plus one hot
// AdviceJSON after one Add to a freshly opened store, and v2-wal-tail is
// the first Snapshot plus one hot AdviceJSON of a store opened with one
// point in its WAL.

import (
	"path/filepath"
	"testing"

	"hpcadvisor/internal/dataset"
)

const benchOpenPoints = 100_000

// benchSnapshotDir fabricates a segment dir whose whole dataset lives in
// one compacted snapshot of the requested format.
func benchSnapshotDir(b *testing.B, pts []dataset.Point, order []int, v2 bool) string {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, snapName(1))
	var err error
	if v2 {
		err = writeSnapshotSegmentV2(path, 1, imageOf(b, pts))
	} else {
		err = writeSnapshotSegmentV1(path, 1, pts, order)
	}
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchHotFilter is the hot advice filter the changed-store cases serve.
var benchHotFilter = dataset.Filter{AppName: "lammps"}.Canonical()

// benchFirstRead times the first Snapshot plus one hot AdviceJSON of each
// store prepare opens; prepare itself is untimed.
func benchFirstRead(b *testing.B, wantLen int, prepare func(b *testing.B) (*SegmentStore, *dataset.Store)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seg, st := prepare(b)
		b.StartTimer()
		sn := st.Snapshot()
		if _, n, err := sn.AdviceJSON(&benchHotFilter, false); err != nil || n == 0 {
			b.Fatalf("hot advice: %d rows, %v", n, err)
		}
		b.StopTimer()
		if sn.Len() != wantLen {
			b.Fatalf("snapshot len %d, want %d", sn.Len(), wantLen)
		}
		if err := seg.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func benchLoad(b *testing.B, dir string) (*SegmentStore, *dataset.Store) {
	b.Helper()
	seg, err := OpenSegments(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	st, err := seg.Load()
	if err != nil {
		b.Fatal(err)
	}
	return seg, st
}

func benchOpenCold(b *testing.B, dir string, wantLen int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := OpenSegments(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		st, err := seg.Load()
		if err != nil {
			b.Fatal(err)
		}
		sn := st.Snapshot()
		if sn.Len() != wantLen {
			b.Fatalf("snapshot len %d, want %d", sn.Len(), wantLen)
		}
		if err := seg.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreOpenCold(b *testing.B) {
	pts := make([]dataset.Point, benchOpenPoints)
	for i := range pts {
		pts[i] = point(i)
	}
	order := canonicalOrder(pts)
	dirV1 := benchSnapshotDir(b, pts, order, false)
	dirV2 := benchSnapshotDir(b, pts, order, true)

	b.Run("v1-parse", func(b *testing.B) {
		benchOpenCold(b, dirV1, len(pts))
	})
	b.Run("v2", func(b *testing.B) {
		benchOpenCold(b, dirV2, len(pts))
	})
	b.Run("v2-first-append", func(b *testing.B) {
		benchFirstRead(b, len(pts)+1, func(b *testing.B) (*SegmentStore, *dataset.Store) {
			seg, st := benchLoad(b, dirV2)
			st.Snapshot()
			st.Add(point(len(pts)))
			return seg, st
		})
	})

	dirTail := benchSnapshotDir(b, pts, order, true)
	seg, err := OpenSegments(dirTail, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := seg.Append(point(len(pts))); err != nil {
		b.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("v2-wal-tail", func(b *testing.B) {
		benchFirstRead(b, len(pts)+1, func(b *testing.B) (*SegmentStore, *dataset.Store) {
			return benchLoad(b, dirTail)
		})
	})
}
