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
