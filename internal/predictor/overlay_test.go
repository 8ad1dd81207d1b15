package predictor

import (
	"strings"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/plot"
)

func overlayFixture(t *testing.T) (plot.Set, []dataset.Point, Config) {
	t.Helper()
	pts := amdahlSweep(t, []int{1, 2, 4, 8})
	store := dataset.NewStore()
	store.AddAll(pts)
	cfg := testConfig()
	cfg.Grid = []int{1, 2, 4, 8, 16, 32}
	return plot.BuildSet(store.Select(dataset.Filter{})), pts, cfg
}

func TestOverlayAddsPredictedSeries(t *testing.T) {
	base, pts, cfg := overlayFixture(t)
	baseNodes := len(base.ExecTimeVsNodes.Series)
	baseCost := len(base.ExecTimeVsCost.Series)

	over := Overlay(base, pts, cfg)

	// ExecTimeVsNodes gains a band plus a dashed fitted curve per group.
	got := over.ExecTimeVsNodes.Series
	if len(got) != baseNodes+2 {
		t.Fatalf("exectime series = %d, want %d", len(got), baseNodes+2)
	}
	band, curve := got[len(got)-2], got[len(got)-1]
	if !band.Band || band.Name != "" {
		t.Errorf("band series = %+v", band)
	}
	if !curve.Dashed || curve.Scatter {
		t.Errorf("curve series style = %+v", curve)
	}
	if !strings.Contains(curve.Name, "(predicted)") {
		t.Errorf("curve name = %q, want predicted marking", curve.Name)
	}
	// The curve reaches the extrapolated 32 nodes.
	last := curve.Points[len(curve.Points)-1]
	if last.X != 32 {
		t.Errorf("curve ends at %v nodes, want 32", last.X)
	}
	// The band encloses the curve: for each curve point there is a lower
	// band point at or below it at the same X.
	lows := map[float64]float64{}
	for _, p := range band.Points[:len(band.Points)/2] {
		lows[p.X] = p.Y
	}
	for _, p := range curve.Points {
		if lo, ok := lows[p.X]; !ok || lo > p.Y {
			t.Errorf("band lower edge at x=%v is %v, above curve %v", p.X, lo, p.Y)
		}
	}

	// ExecTimeVsCost gains one dashed scatter series with the two grid-hole
	// predictions.
	cs := over.ExecTimeVsCost.Series
	if len(cs) != baseCost+1 {
		t.Fatalf("cost series = %d, want %d", len(cs), baseCost+1)
	}
	pred := cs[len(cs)-1]
	if !pred.Scatter || !pred.Dashed {
		t.Errorf("cost overlay style = %+v", pred)
	}
	if len(pred.Points) != 2 {
		t.Errorf("cost overlay points = %d, want 2 (16 and 32 nodes)", len(pred.Points))
	}

	// The base set is untouched for plots without overlays.
	if len(over.Speedup.Series) != len(base.Speedup.Series) {
		t.Error("speedup plot modified")
	}
}

func TestOverlayRendersInBothBackends(t *testing.T) {
	base, pts, cfg := overlayFixture(t)
	over := Overlay(base, pts, cfg)
	svg := string(plot.RenderSVG(over.ExecTimeVsNodes))
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("SVG lacks dashed predicted curve")
	}
	if !strings.Contains(svg, "<polygon") || !strings.Contains(svg, "fill-opacity") {
		t.Error("SVG lacks interval band polygon")
	}
	if !strings.Contains(svg, "(predicted)") {
		t.Error("SVG legend lacks predicted marking")
	}
	ascii := plot.RenderASCII(over.ExecTimeVsNodes, 72, 20)
	if !strings.Contains(ascii, "(predicted)") {
		t.Errorf("ASCII legend lacks predicted marking:\n%s", ascii)
	}
}

func TestOverlayWithoutFitsIsIdentity(t *testing.T) {
	pts := amdahlSweep(t, []int{1, 2}) // below the evidence gate
	store := dataset.NewStore()
	store.AddAll(pts)
	base := plot.BuildSet(store.Select(dataset.Filter{}))
	over := Overlay(base, pts, testConfig())
	if len(over.ExecTimeVsNodes.Series) != len(base.ExecTimeVsNodes.Series) {
		t.Error("overlay added series without a trusted fit")
	}
}

func TestOverlayDoesNotMutateSharedSeriesSlice(t *testing.T) {
	// The engine hands Overlay its cached measured plot set by value; the
	// Series slices are shared. Overlaying twice with different configs
	// must never write into the first overlay's (or the measured set's)
	// backing array.
	base, pts, cfgA := overlayFixture(t)
	cfgB := cfgA
	cfgB.Grid = []int{1, 2, 4, 8, 64}

	overA := Overlay(base, pts, cfgA)
	curveA := overA.ExecTimeVsNodes.Series[len(overA.ExecTimeVsNodes.Series)-1]
	lastA := curveA.Points[len(curveA.Points)-1]

	Overlay(base, pts, cfgB) // must not touch overA or base

	curveAgain := overA.ExecTimeVsNodes.Series[len(overA.ExecTimeVsNodes.Series)-1]
	if got := curveAgain.Points[len(curveAgain.Points)-1]; got != lastA {
		t.Errorf("second overlay mutated the first: curve end %+v, want %+v", got, lastA)
	}
	for _, s := range base.ExecTimeVsNodes.Series {
		if s.Band || s.Dashed {
			t.Errorf("measured set gained overlay series %q", s.Name)
		}
	}
}

func TestBandSharesItsCurveColor(t *testing.T) {
	base, pts, cfg := overlayFixture(t)
	over := Overlay(base, pts, cfg)
	svg := string(plot.RenderSVG(over.ExecTimeVsNodes))
	// The band polygon must be tinted with the same palette color as the
	// dashed curve it belongs to.
	polyStart := strings.Index(svg, "<polygon")
	if polyStart < 0 {
		t.Fatal("no band polygon")
	}
	poly := svg[polyStart : strings.Index(svg[polyStart:], "/>")+polyStart]
	dashStart := strings.Index(svg, "stroke-dasharray")
	line := svg[strings.LastIndex(svg[:dashStart], "<polyline"):dashStart]
	var bandColor, curveColor string
	if i := strings.Index(poly, `fill="#`); i >= 0 {
		bandColor = poly[i+6 : i+13]
	}
	if i := strings.Index(line, `stroke="#`); i >= 0 {
		curveColor = line[i+8 : i+15]
	}
	if bandColor == "" || bandColor != curveColor {
		t.Errorf("band color %q != curve color %q", bandColor, curveColor)
	}
}
