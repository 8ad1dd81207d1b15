package queryengine_test

// Byte-identity of the served artifacts: the indexed, cached engine path
// must produce exactly the bytes the seed scan path produced — advice
// tables, plot sets, and rendered SVGs — on a real collected sweep.

import (
	"bytes"
	"reflect"
	"testing"

	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/queryengine"
)

const sweepConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
  - Standard_HB120rs_v2
  - Standard_HC44rs
rgprefix: eqtest
nnodes: [1, 2, 4, 8, 16]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "30"
`

func collectedAdvisor(t *testing.T) *core.Advisor {
	t.Helper()
	cfg, err := config.Parse([]byte(sweepConfig))
	if err != nil {
		t.Fatal(err)
	}
	adv := core.New(cfg.Subscription)
	dep, err := adv.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Collect(dep.Name, cfg, core.CollectOptions{}); err != nil {
		t.Fatal(err)
	}
	return adv
}

// scanSource serves plots through the seed path: full scans via SelectScan,
// grouped without indexes. It is the pre-engine reference.
type scanSource struct{ store *dataset.Store }

func (s scanSource) Select(f dataset.Filter) []dataset.Point { return s.store.SelectScan(f) }

func (s scanSource) GroupSeries(f dataset.Filter) map[dataset.SeriesKey][]dataset.Point {
	out := make(map[dataset.SeriesKey][]dataset.Point)
	for _, p := range s.store.SelectScan(f) {
		k := dataset.SeriesKey{SKUAlias: p.SKUAlias, InputDesc: p.InputDesc}
		out[k] = append(out[k], p)
	}
	return out
}

var equivalenceFilters = []dataset.Filter{
	{},
	{AppName: "lammps"},
	{AppName: "LAMMPS", SKU: "hb120rs_v3"},
	{SKU: "Standard_HC44rs"},
	{AppName: "lammps", MinNodes: 2, MaxNodes: 8},
	{AppName: "nosuchapp"},
}

func TestAdviceTableByteIdenticalToScanPath(t *testing.T) {
	adv := collectedAdvisor(t)
	eng := queryengine.New(adv.Store)
	for _, f := range equivalenceFilters {
		for _, order := range []pareto.SortOrder{pareto.ByTime, pareto.ByCost} {
			want := pareto.FormatAdviceTable(pareto.Advice(adv.Store.SelectScan(f), order))
			got := eng.AdviceTable(eng.Snapshot(), f, order)
			if got != want {
				t.Errorf("filter %+v order %v: advice table diverges\n--- scan path:\n%s--- engine:\n%s", f, order, want, got)
			}
			// And through the advisor façade, twice (second serve is cached).
			if adv.AdviceTable(f, order) != want || adv.AdviceTable(f, order) != want {
				t.Errorf("filter %+v order %v: advisor table diverges", f, order)
			}
		}
	}
}

// hotFilters enumerates every filter whose front positions the snapshot
// memoizes: unfiltered plus each single app/alias/input.
func hotFilters(sn *dataset.Snapshot) []dataset.Filter {
	filters := []dataset.Filter{{}}
	for _, app := range sn.Apps() {
		filters = append(filters, dataset.Filter{AppName: app})
	}
	for _, alias := range sn.SKUAliases() {
		filters = append(filters, dataset.Filter{SKU: alias})
	}
	for _, in := range sn.Inputs() {
		if in != "" {
			filters = append(filters, dataset.Filter{InputDesc: in})
		}
	}
	return filters
}

// The memoized hot fronts serve through Engine.Advice; every row set
// must equal pareto.Advice over the scan baseline — same points, same
// order — for the hot filters and the cold multi-field ones alike, on a
// real collected sweep.
func TestHotFrontAdviceByteIdenticalToScanPath(t *testing.T) {
	adv := collectedAdvisor(t)
	eng := queryengine.New(adv.Store)
	filters := append(hotFilters(adv.Store.Snapshot()), equivalenceFilters...)
	for _, f := range filters {
		for _, order := range []pareto.SortOrder{pareto.ByTime, pareto.ByCost} {
			want := pareto.Advice(adv.Store.SelectScan(f), order)
			if want == nil {
				want = []dataset.Point{} // Advice hands out non-nil copies
			}
			got := eng.Advice(eng.Snapshot(), f, order)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("filter %+v order %v: advice rows diverge from scan path (%d vs %d rows)",
					f, order, len(got), len(want))
			}
			// The formatted table goes through the same cached rows.
			wantTable := pareto.FormatAdviceTable(want)
			if gotTable := eng.AdviceTable(eng.Snapshot(), f, order); gotTable != wantTable {
				t.Errorf("filter %+v order %v: advice table diverges\n--- scan:\n%s--- engine:\n%s",
					f, order, wantTable, gotTable)
			}
		}
	}
	// Generation roll: an append must reach the merged hot front too.
	adv.Store.Add(dataset.Point{ScenarioID: "hot-roll", AppName: "lammps", SKU: "Standard_HC44rs",
		SKUAlias: "hc44rs", NNodes: 3, ExecTimeSec: 0.001, CostUSD: 0.0001})
	f := dataset.Filter{AppName: "lammps"}
	want := pareto.Advice(adv.Store.SelectScan(f), pareto.ByTime)
	if got := eng.Advice(eng.Snapshot(), f, pareto.ByTime); !reflect.DeepEqual(got, want) {
		t.Errorf("after append: hot front served stale rows (%d vs %d)", len(got), len(want))
	}
}

func TestPlotSetAndSVGByteIdenticalToScanPath(t *testing.T) {
	adv := collectedAdvisor(t)
	eng := queryengine.New(adv.Store)
	for _, f := range equivalenceFilters {
		wantSet := plot.BuildSet(scanSource{adv.Store}, f)
		gotSet := eng.PlotSet(eng.Snapshot(), f)
		if !reflect.DeepEqual(wantSet, gotSet) {
			t.Errorf("filter %+v: plot set diverges from scan path", f)
		}
		for _, name := range plot.SetNames {
			p, _ := wantSet.ByName(name)
			want := plot.RenderSVG(p)
			got, err := eng.SVG(eng.Snapshot(), name, f)
			if err != nil {
				t.Fatalf("SVG(%s): %v", name, err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("filter %+v plot %s: SVG bytes diverge", f, name)
			}
			// Cached serve stays identical.
			again, _ := eng.SVG(eng.Snapshot(), name, f)
			if !bytes.Equal(want, again) {
				t.Errorf("filter %+v plot %s: cached SVG diverges", f, name)
			}
		}
	}
}

func TestRepriceAdviceMatchesPerPointLookups(t *testing.T) {
	adv := collectedAdvisor(t)
	f := dataset.Filter{AppName: "lammps"}
	for _, spot := range []bool{false, true} {
		got, err := adv.RepriceAdvice(f, pareto.ByTime, "westeurope", spot)
		if err != nil {
			t.Fatalf("spot=%v: %v", spot, err)
		}
		// Reference: the original per-point lookup.
		pts := adv.Store.SelectScan(f)
		repriced := make([]dataset.Point, 0, len(pts))
		for _, p := range pts {
			var hourly float64
			if spot {
				hourly, err = adv.Prices.HourlySpot("westeurope", p.SKU)
			} else {
				hourly, err = adv.Prices.Hourly("westeurope", p.SKU)
			}
			if err != nil {
				t.Fatal(err)
			}
			p.CostUSD = pricing.CostAt(hourly, p.NNodes, p.ExecTimeSec)
			repriced = append(repriced, p)
		}
		want := pareto.Advice(repriced, pareto.ByTime)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("spot=%v: repriced advice diverges from per-point path", spot)
		}
	}
	if _, err := adv.RepriceAdvice(f, pareto.ByTime, "nowhere", false); err == nil {
		t.Error("unknown region must error")
	}
}

func TestEngineRebindsWhenStoreSwapped(t *testing.T) {
	adv := collectedAdvisor(t)
	before := adv.AdviceTable(dataset.Filter{}, pareto.ByTime)
	// Swap in an empty dataset the way the CLI rehydrates state; cached
	// results must not leak across stores — via SetStore or direct field
	// assignment.
	adv.SetStore(dataset.NewStore())
	if rows := adv.Advice(dataset.Filter{}, pareto.ByTime); len(rows) != 0 {
		t.Fatalf("engine served %d rows from the old store after SetStore", len(rows))
	}
	old := dataset.NewStore()
	old.Add(dataset.Point{ScenarioID: "x", AppName: "lammps", SKUAlias: "hb120rs_v3", NNodes: 1, ExecTimeSec: 10, CostUSD: 1})
	adv.Store = old // public-field swap, the integration tests' idiom
	if rows := adv.Advice(dataset.Filter{}, pareto.ByTime); len(rows) != 1 {
		t.Fatalf("engine did not rebind after direct Store swap: %d rows", len(rows))
	}
	_ = before
}
