package storage

// BenchmarkStoreOpenCold measures the cold-open path: OpenSegments + Load +
// the first Snapshot over a ~100k-point store, for the two load rungs. v2
// is the columnar load every build takes (mmap on Linux, read bytes under
// the nommap tag); v1-parse is the row rebuild.

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
		err = writeSnapshotSegmentV2(path, 1, pts, order)
	} else {
		err = writeSnapshotSegmentV1(path, 1, pts, order)
	}
	if err != nil {
		b.Fatal(err)
	}
	return dir
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
}
