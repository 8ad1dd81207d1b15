package dataset

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Select over a store of thousands of rows must equal the SelectScan
// oracle for every filter: full scans and popular app/SKU posting lists
// that span many candidates, tight index probes, and absent symbols.
func TestSelectMatchesScanLargeStore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randomStore(rng, 3*4096)
	sn := s.Snapshot()

	filters := []Filter{
		{},
		{IncludeFailed: true},
		{AppName: "lammps"},
		{AppName: "lammps", SKU: "hb120rs_v3"},
		{MinNodes: 2, MaxNodes: 8},
		{Tags: map[string]string{"run": "r1"}},
		{AppName: "no-such-app"},
	}
	for i := 0; i < 60; i++ {
		filters = append(filters, randomFilter(rng))
	}
	for _, f := range filters {
		if got, want := sn.Select(f), s.SelectScan(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %+v: Select (%d rows) differs from scan oracle (%d rows)", f, len(got), len(want))
		}
	}
}

// TestParallelSelectConcurrent runs selects on one snapshot from many
// goroutines at once — the race detector's target.
func TestParallelSelectConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := randomStore(rng, 2*4096)
	sn := s.Snapshot()
	want := map[string]int{}
	filters := []Filter{{}, {AppName: "wrf"}, {SKU: "hc44rs"}, {IncludeFailed: true}}
	keys := []string{"all", "wrf", "hc44rs", "failed"}
	for i, f := range filters {
		want[keys[i]] = len(sn.Select(f))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				f := filters[(g+i)%len(filters)]
				got := sn.Select(f)
				if len(got) != want[keys[(g+i)%len(filters)]] {
					t.Errorf("concurrent select row count changed: %d", len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
