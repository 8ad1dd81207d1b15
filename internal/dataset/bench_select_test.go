package dataset

// BenchmarkSelect measures Select over a 200k-row store: a one-app
// indexed select (a posting-list walk) and an unindexed range scan (a
// walk over every row).

import (
	"math/rand"
	"testing"
)

func BenchmarkSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomStore(rng, 200_000)
	sn := s.Snapshot()
	for _, bc := range []struct {
		name string
		f    Filter
	}{
		{"one-app", Filter{AppName: "lammps"}},
		{"scan", Filter{MinNodes: 2}},
	} {
		want := len(sn.Select(bc.f))
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := sn.Select(bc.f); len(got) != want {
					b.Fatalf("row count changed: %d", len(got))
				}
			}
		})
	}
}

// BenchmarkSnapshotFold measures the fold a 50k-point store pays: a heap
// base plus the delta the fold rule folds at (max(foldMinDelta,
// 50k/foldRatio) points) merged into a new heap base. The fold rule spreads
// this cost over the delta's appends.
func BenchmarkSnapshotFold(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(1))
	s := randomStore(rng, n)
	s.Snapshot()
	s.mu.RLock()
	base := s.base
	s.mu.RUnlock()
	nd := foldMinDelta
	if n/foldRatio > nd {
		nd = n / foldRatio
	}
	pts := deltaPoints(rng, s.All(), nd)
	var lg deltaLog
	lg.extend(base, pts)
	sn := lg.snapshot(base, pts, uint64(n+nd))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sn.delta.fold(sn.gen); got.Len() != n+nd {
			b.Fatalf("folded %d points, want %d", got.Len(), n+nd)
		}
	}
}
