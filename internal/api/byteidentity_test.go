package api

// Byte-identity suite for the columnar read path: an advisor serving a
// snapshot straight off a v2 segment (mapped, or read under the nommap
// tag) must produce byte-for-byte the same advice rows, advice tables, SVG
// plots, and /api/v1/advice bodies as one serving an in-memory store that
// appended the same points — the heap build live collection uses.

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/service"
	"hpcadvisor/internal/storage"
)

// identityPoint fabricates a datapoint with enough field variety that any
// column/row mismatch between the two load paths shows up in the output.
func identityPoint(i int) dataset.Point {
	apps := []string{"lammps", "openfoam", "gromacs"}
	skus := [][2]string{
		{"Standard_HB120rs_v3", "hb120v3"},
		{"Standard_HC44rs", "hc44"},
		{"Standard_F72s_v2", "f72"},
	}
	sku := skus[i%len(skus)]
	p := dataset.Point{
		ScenarioID:  fmt.Sprintf("run-%04d", i),
		AppName:     apps[i%len(apps)],
		SKU:         sku[0],
		SKUAlias:    sku[1],
		NNodes:      1 << (i % 4),
		PPN:         16,
		InputDesc:   fmt.Sprintf("BOXFACTOR=%d", 10+i%3),
		ExecTimeSec: 250.0/float64(1+i%9) + float64(i%7),
		CostUSD:     0.1 * float64(1+i%11),
		CollectedAt: float64(1000 + i),
	}
	if i%13 == 12 {
		p.Failed = true
		p.Error = "simulated failure"
	}
	return p
}

// segmentAdvisor loads the compacted segment dir into an advisor through
// the columnar load path.
func segmentAdvisor(t *testing.T, dir string) *core.Advisor {
	t.Helper()
	seg, err := storage.OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := seg.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	return storeAdvisor(st)
}

func storeAdvisor(st *dataset.Store) *core.Advisor {
	adv := core.New("identitysub")
	adv.SetStore(st)
	return adv
}

func TestMmapVsHeapServingByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	seg, err := storage.OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	heap := dataset.NewStore()
	for i := 0; i < 160; i++ {
		if err := seg.Append(identityPoint(i)); err != nil {
			t.Fatal(err)
		}
		heap.Add(identityPoint(i))
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	mm := segmentAdvisor(t, dir)
	hp := storeAdvisor(heap)

	filters := []dataset.Filter{
		{},
		{AppName: "lammps"},
		{AppName: "openfoam", SKU: "hc44"},
		{AppName: "gromacs", InputDesc: "BOXFACTOR=11"},
		{MinNodes: 2, MaxNodes: 8},
		{IncludeFailed: true},
	}
	for _, f := range filters {
		for _, order := range []pareto.SortOrder{pareto.ByTime, pareto.ByCost} {
			a, b := mm.Advice(f, order), hp.Advice(f, order)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("Advice(%+v, %v): mmap and heap rows differ", f, order)
			}
			ta, tb := mm.AdviceTable(f, order), hp.AdviceTable(f, order)
			if ta != tb {
				t.Fatalf("AdviceTable(%+v, %v): mmap and heap tables differ:\n%s\n--- vs ---\n%s",
					f, order, ta, tb)
			}
		}
	}

	// Plots render to identical SVG bytes.
	dirA, dirB := t.TempDir(), t.TempDir()
	pathsA, err := mm.WritePlotsSVG(dirA, dataset.Filter{AppName: "lammps"})
	if err != nil {
		t.Fatal(err)
	}
	pathsB, err := hp.WritePlotsSVG(dirB, dataset.Filter{AppName: "lammps"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pathsA) == 0 || len(pathsA) != len(pathsB) {
		t.Fatalf("plot sets differ in size: %d vs %d", len(pathsA), len(pathsB))
	}
	for i := range pathsA {
		a, err := os.ReadFile(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("plot %s differs between mmap and heap serving", filepath.Base(pathsA[i]))
		}
	}

	// /api/v1/advice bodies (the hot stitched-JSON path included) are
	// byte-identical, and so are the generation-derived ETags.
	tsA := httptest.NewServer(New(service.New(mm)).Mux())
	defer tsA.Close()
	tsB := httptest.NewServer(New(service.New(hp)).Mux())
	defer tsB.Close()
	queries := []string{
		"/api/v1/advice",
		"/api/v1/advice?sort=cost",
		"/api/v1/advice?app=lammps",
		"/api/v1/advice?app=lammps&sort=cost",
		"/api/v1/advice?app=openfoam&sku=hc44",
		"/api/v1/advice?app=gromacs&input=BOXFACTOR%3D11",
		"/api/v1/advice?minnodes=2&maxnodes=8",
	}
	for _, q := range queries {
		respA, bodyA := get(t, tsA, q, nil)
		respB, bodyB := get(t, tsB, q, nil)
		if respA.StatusCode != 200 || respB.StatusCode != 200 {
			t.Fatalf("%s: status %d vs %d", q, respA.StatusCode, respB.StatusCode)
		}
		if bodyA != bodyB {
			t.Fatalf("%s: mmap and heap bodies differ:\n%s\n--- vs ---\n%s", q, bodyA, bodyB)
		}
		if ea, eb := respA.Header.Get("ETag"), respB.Header.Get("ETag"); ea != eb {
			t.Fatalf("%s: ETag %q vs %q (generation drift between load paths)", q, ea, eb)
		}
	}
}
