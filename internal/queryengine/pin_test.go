package queryengine_test

import (
	"bytes"
	"reflect"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/queryengine"
)

// scanAt renders the scan-path references of one store state: advice rows,
// the pareto SVG, and the advice table (the Cached probe's derivation).
func scanAt(store *dataset.Store, f dataset.Filter) ([]dataset.Point, []byte, string) {
	rows := pareto.Advice(store.SelectScan(f), pareto.ByTime)
	p, _ := plot.BuildSet(store.SelectScan(f)).ByName("pareto")
	return rows, plot.RenderSVG(p), pareto.FormatAdviceTable(rows)
}

// TestQueriesHonourStaleSnapshot pins a snapshot, appends a point that
// changes every answer, and then queries with the old pin: Advice, SVG and
// Cached must answer at the pinned generation — byte-identical to a scan
// of the store as it was — and never with the live one, even after the
// live generation was served first.
func TestQueriesHonourStaleSnapshot(t *testing.T) {
	for _, f := range []dataset.Filter{
		{AppName: "lammps"},                            // hot: served from the memoized front
		{AppName: "lammps", MinNodes: 2, MaxNodes: 16}, // cold: select + front
	} {
		adv := collectedAdvisor(t)
		eng := queryengine.New(adv.Store)
		old := eng.Snapshot()
		wantRows, wantSVG, wantTable := scanAt(adv.Store, f)

		adv.Store.Add(dataset.Point{ScenarioID: "pin-roll", AppName: "lammps", SKU: "Standard_HC44rs",
			SKUAlias: "hc44rs", NNodes: 3, ExecTimeSec: 0.001, CostUSD: 0.0001})
		live := eng.Snapshot()
		if live.Generation() == old.Generation() {
			t.Fatal("append did not roll the generation")
		}
		liveRows, liveSVG, liveTable := scanAt(adv.Store, f)
		if reflect.DeepEqual(liveRows, wantRows) || bytes.Equal(liveSVG, wantSVG) || liveTable == wantTable {
			t.Fatalf("filter %+v: the append does not change every answer; the test cannot tell the generations apart", f)
		}

		table := func(sn *dataset.Snapshot) any {
			return pareto.FormatAdviceTable(pareto.Advice(sn.Select(f), pareto.ByTime))
		}
		// Serve the live generation first, so a stale query that leaked
		// onto the live snapshot would find its answer already cached.
		if got := eng.Advice(live, f, pareto.ByTime); !reflect.DeepEqual(got, liveRows) {
			t.Fatalf("filter %+v: live advice diverges from the scan path", f)
		}
		if got, _ := eng.SVG(live, "pareto", f); !bytes.Equal(got, liveSVG) {
			t.Fatalf("filter %+v: live SVG diverges from the scan path", f)
		}
		if got := eng.Cached(live, "table", f, "", table); got != liveTable {
			t.Fatalf("filter %+v: live Cached diverges from the scan path", f)
		}

		if got := eng.Advice(old, f, pareto.ByTime); !reflect.DeepEqual(got, wantRows) {
			t.Errorf("filter %+v: Advice at the old pin served %d rows, want the pinned generation's %d", f, len(got), len(wantRows))
		}
		got, err := eng.SVG(old, "pareto", f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantSVG) {
			t.Errorf("filter %+v: SVG at the old pin is not the pinned generation's render", f)
		}
		var computedAt *dataset.Snapshot
		v := eng.Cached(old, "table", f, "", func(sn *dataset.Snapshot) any {
			computedAt = sn
			return table(sn)
		})
		if computedAt != old {
			t.Errorf("filter %+v: Cached did not compute at the pinned snapshot", f)
		}
		if v != wantTable {
			t.Errorf("filter %+v: Cached at the old pin diverges from the pinned scan\n--- want:\n%s--- got:\n%v", f, wantTable, v)
		}
	}
}
