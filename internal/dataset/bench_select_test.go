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

// BenchmarkSnapshotFold measures the fold a 50k-point store pays: the
// delta the fold rule folds at (max(foldMinDelta, 50k/foldRatio) points)
// merged with the base into a new base. The heap case folds over a base
// whose rows are all materialized, as a store built by appends holds; the
// mapped-base case folds over a freshly loaded image with no row decoded.
// The fold rule spreads this cost over the delta's appends.
func BenchmarkSnapshotFold(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(1))
	s := randomStore(rng, n)
	s.Snapshot()
	s.mu.RLock()
	heap := s.base
	s.mu.RUnlock()
	nd := foldMinDelta
	if n/foldRatio > nd {
		nd = n / foldRatio
	}
	all := s.All()
	pts := deltaPoints(rng, all, nd)
	col := mappedColumnar(b, all)
	for _, tc := range []struct {
		name string
		base func() *run
	}{
		{"heap", func() *run { return heap }},
		{"mapped-base", func() *run {
			sn, err := newMappedSnapshot(col)
			if err != nil {
				b.Fatal(err)
			}
			return sn.base
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				base := tc.base()
				var lg deltaLog
				lg.extend(base, pts)
				sn := lg.snapshot(base, pts, uint64(n+nd))
				b.StartTimer()
				got, err := sn.fold()
				if err != nil {
					b.Fatal(err)
				}
				if got.Len() != n+nd {
					b.Fatalf("folded %d points, want %d", got.Len(), n+nd)
				}
			}
		})
	}
}
