package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomStore builds a store with clustered fields (few apps/SKUs/inputs so
// filters actually hit) plus failures and tags.
func randomStore(rng *rand.Rand, n int) *Store {
	apps := []string{"lammps", "openfoam", "wrf", "gromacs"}
	skus := [][2]string{
		{"Standard_HB120rs_v3", "hb120rs_v3"},
		{"Standard_HB120rs_v2", "hb120rs_v2"},
		{"Standard_HC44rs", "hc44rs"},
		{"Standard_D32s_v5", "d32s_v5"},
	}
	inputs := []string{"atoms=864M", "mesh=40 16 16", "", "cells=8M"}
	s := NewStore()
	for i := 0; i < n; i++ {
		sku := skus[rng.Intn(len(skus))]
		p := Point{
			ScenarioID:  fmt.Sprintf("s%04d", i),
			AppName:     apps[rng.Intn(len(apps))],
			SKU:         sku[0],
			SKUAlias:    sku[1],
			NNodes:      1 << rng.Intn(5),
			PPN:         1 + rng.Intn(120),
			InputDesc:   inputs[rng.Intn(len(inputs))],
			ExecTimeSec: rng.Float64() * 1000,
			CostUSD:     rng.Float64() * 10,
			Failed:      rng.Intn(10) == 0,
		}
		if rng.Intn(3) == 0 {
			p.Tags = map[string]string{"run": fmt.Sprintf("r%d", rng.Intn(3))}
		}
		s.Add(p)
	}
	return s
}

func randomFilter(rng *rand.Rand) Filter {
	var f Filter
	// Each field set with some probability; mixed case exercises folding.
	switch rng.Intn(4) {
	case 0:
		f.AppName = "LAMMPS"
	case 1:
		f.AppName = "openfoam"
	case 2:
		f.AppName = "wrf"
	}
	switch rng.Intn(4) {
	case 0:
		f.SKU = "hb120rs_v3" // alias
	case 1:
		f.SKU = "STANDARD_HC44RS" // full name, folded
	case 2:
		f.SKU = "nosuchsku"
	}
	if rng.Intn(3) == 0 {
		f.InputDesc = "atoms=864M"
	}
	if rng.Intn(3) == 0 {
		f.MinNodes = 1 << rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		f.MaxNodes = 1 << (1 + rng.Intn(4))
	}
	if rng.Intn(3) == 0 {
		f.Tags = map[string]string{"run": "r1"}
	}
	f.IncludeFailed = rng.Intn(2) == 0
	return f
}

// The tentpole's correctness property: the indexed snapshot Select and the
// scan-path SelectScan agree exactly — same points, same order — on
// randomized stores and filters (the FrontNaive oracle pattern).
func TestPropertyIndexedSelectEqualsScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomStore(rng, 50+rng.Intn(400))
		for q := 0; q < 50; q++ {
			f := randomFilter(rng)
			indexed := s.Select(f)
			scanned := s.SelectScan(f)
			if !reflect.DeepEqual(indexed, scanned) {
				t.Fatalf("seed %d query %d: indexed Select diverges from scan\nfilter: %+v\nindexed: %d pts\nscanned: %d pts",
					seed, q, f, len(indexed), len(scanned))
			}
		}
	}
}

// Appends after a snapshot must not disturb the delta roll: interleave
// appends and queries and re-check the scan equivalence at every
// generation.
func TestSnapshotMergeAmortizedRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewStore()
	f := Filter{AppName: "lammps"}
	for round := 0; round < 30; round++ {
		batch := randomStore(rng, 1+rng.Intn(20)).All()
		s.AddAll(batch)
		if got, want := s.Select(f), s.SelectScan(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: indexed/scan divergence after append (%d vs %d pts)", round, len(got), len(want))
		}
	}
}

func TestSnapshotCachedPerGeneration(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(1)), 100)
	sn1 := s.Snapshot()
	if sn2 := s.Snapshot(); sn2 != sn1 {
		t.Error("snapshot not cached: same generation returned different pointers")
	}
	gen := s.Generation()
	if sn1.Generation() != gen {
		t.Errorf("snapshot gen %d != store gen %d", sn1.Generation(), gen)
	}
	s.Add(Point{ScenarioID: "new", AppName: "lammps", SKUAlias: "hb120rs_v3"})
	if s.Generation() != gen+1 {
		t.Errorf("generation did not bump: %d", s.Generation())
	}
	sn3 := s.Snapshot()
	if sn3 == sn1 {
		t.Error("snapshot not rebuilt after append")
	}
	if sn3.Len() != sn1.Len()+1 {
		t.Errorf("rebuilt snapshot has %d points, want %d", sn3.Len(), sn1.Len()+1)
	}
	// The old snapshot stays queryable and unchanged (copy-on-write).
	if sn1.Len() != 100 {
		t.Errorf("old snapshot mutated: %d points", sn1.Len())
	}
}

func TestAddAllEmptyKeepsGeneration(t *testing.T) {
	s := NewStore()
	s.Add(Point{ScenarioID: "a"})
	gen := s.Generation()
	s.AddAll(nil)
	if s.Generation() != gen {
		t.Error("empty AddAll must not invalidate snapshots")
	}
}

// Concurrent appenders vs snapshot readers; run with -race. Readers hold
// snapshots across appends and must see internally consistent views.
func TestConcurrentAppendsVsSnapshotQueries(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	const writers, perWriter, readers = 4, 200, 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(Point{
					ScenarioID: fmt.Sprintf("w%d-%d", w, i),
					AppName:    "lammps",
					SKU:        "Standard_HB120rs_v3",
					SKUAlias:   "hb120rs_v3",
					NNodes:     1 + i%16,
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sn := s.Snapshot()
				pts := sn.Select(Filter{AppName: "LAMMPS"})
				if len(pts) != sn.Len() {
					panic("snapshot internally inconsistent")
				}
				_ = sn.Select(Filter{SKU: "hb120rs_v3"})
				_ = sn.Apps()
			}
		}()
	}
	wg.Wait()
	if got := s.Snapshot().Len(); got != writers*perWriter {
		t.Fatalf("final snapshot has %d points, want %d", got, writers*perWriter)
	}
}

func TestCanonicalFilterKey(t *testing.T) {
	a := Filter{AppName: "LAMMPS", SKU: "HB120rs_v3", Tags: map[string]string{"b": "2", "a": "1"}}
	b := Filter{AppName: "lammps", SKU: "hb120rs_v3", Tags: map[string]string{"a": "1", "b": "2"}}
	ca, cb := a.Canonical(), b.Canonical()
	if ca.Key() != cb.Key() {
		t.Errorf("equivalent filters key differently:\n%s\n%s", ca.Key(), cb.Key())
	}
	distinct := []Filter{
		{},
		{AppName: "lammps"},
		{SKU: "lammps"},
		{InputDesc: "lammps"},
		{AppName: "lammps", IncludeFailed: true},
		{MinNodes: 2},
		{MaxNodes: 2},
		{Tags: map[string]string{"a": "1"}},
	}
	seen := map[string]int{}
	for i, f := range distinct {
		c := f.Canonical()
		k := c.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("filters %d and %d collide on key %q", i, j, k)
		}
		seen[k] = i
	}
}
