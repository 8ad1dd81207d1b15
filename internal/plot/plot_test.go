package plot

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
)

// lammpsStore builds a dataset resembling the paper's Figure 2-5 data:
// three SKUs, six node counts, one input.
func lammpsStore() *dataset.Store {
	s := dataset.NewStore()
	series := map[string][]float64{
		// node counts:      1     2      3      4      8     16
		"hc44rs":     {2760, 1377, 892, 568, 194, 99},
		"hb120rs_v2": {1095, 353, 206, 155, 80, 43},
		"hb120rs_v3": {961, 311, 179, 135, 70, 38},
	}
	prices := map[string]float64{"hc44rs": 3.168, "hb120rs_v2": 3.6, "hb120rs_v3": 3.6}
	nodes := []int{1, 2, 3, 4, 8, 16}
	for alias, times := range series {
		for i, n := range nodes {
			s.Add(dataset.Point{
				ScenarioID:  alias + "-" + string(rune('0'+i)),
				AppName:     "lammps",
				SKU:         "Standard_" + alias,
				SKUAlias:    alias,
				NNodes:      n,
				PPN:         120,
				InputDesc:   "atoms=864M",
				ExecTimeSec: times[i],
				CostUSD:     float64(n) * times[i] * prices[alias] / 3600,
				Utilization: monitor.Sample{CPUUtil: 0.8},
			})
		}
	}
	return s
}

func TestExecTimeVsNodesShape(t *testing.T) {
	p := ExecTimeVsNodes(lammpsStore().Select(dataset.Filter{AppName: "lammps"}))
	if len(p.Series) != 3 {
		t.Fatalf("series = %d, want 3 (one per SKU, as in Fig. 2)", len(p.Series))
	}
	if p.Subtitle != "atoms=864M" {
		t.Errorf("subtitle = %q (paper shows the input here)", p.Subtitle)
	}
	for _, s := range p.Series {
		if len(s.Points) != 6 {
			t.Errorf("%s has %d points", s.Name, len(s.Points))
		}
		// X ascending, Y descending (time falls with nodes).
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].X <= s.Points[i-1].X {
				t.Errorf("%s X not ascending", s.Name)
			}
			if s.Points[i].Y >= s.Points[i-1].Y {
				t.Errorf("%s time not decreasing", s.Name)
			}
		}
	}
	if p.XLabel != "Number of VMs" || p.YLabel != "Execution time (seconds)" {
		t.Errorf("labels = %q / %q", p.XLabel, p.YLabel)
	}
}

func TestExecTimeVsCostIsScatter(t *testing.T) {
	p := ExecTimeVsCost(lammpsStore().Select(dataset.Filter{AppName: "lammps"}))
	for _, s := range p.Series {
		if !s.Scatter {
			t.Errorf("%s should be scatter (Fig. 3 plots one dot per scenario)", s.Name)
		}
	}
	if p.XLabel != "Execution time (seconds)" || p.YLabel != "Cost (USD)" {
		t.Errorf("labels = %q / %q", p.XLabel, p.YLabel)
	}
}

func TestSpeedupBaselineIsSmallestNodeCount(t *testing.T) {
	p := Speedup(lammpsStore().Select(dataset.Filter{AppName: "lammps"}))
	for _, s := range p.Series {
		if s.Points[0].X != 1 || s.Points[0].Y != 1 {
			t.Errorf("%s baseline = (%v, %v), want (1, 1)", s.Name, s.Points[0].X, s.Points[0].Y)
		}
		// Speedup grows with nodes for this data.
		last := s.Points[len(s.Points)-1]
		if last.Y < 20 {
			t.Errorf("%s speedup @16 = %.1f, want > 20 (paper Fig. 4 shows ~26)", s.Name, last.Y)
		}
	}
}

func TestEfficiencyShowsSuperLinear(t *testing.T) {
	p := Efficiency(lammpsStore().Select(dataset.Filter{AppName: "lammps"}))
	super := false
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if pt.Y > 1.0 {
				super = true
			}
		}
	}
	if !super {
		t.Error("no efficiency above 1; paper Fig. 5 shows super-linear values")
	}
}

func TestRelativePlotsSkipSingletonSeries(t *testing.T) {
	s := dataset.NewStore()
	s.Add(dataset.Point{ScenarioID: "only", AppName: "x", SKUAlias: "a", NNodes: 4, ExecTimeSec: 10, CostUSD: 1})
	p := Speedup(s.Select(dataset.Filter{}))
	if len(p.Series) != 0 {
		t.Errorf("series = %d, want 0 (cannot compute speedup from one point)", len(p.Series))
	}
}

func TestParetoScatterHasFrontLine(t *testing.T) {
	p := ParetoScatter(lammpsStore().Select(dataset.Filter{AppName: "lammps"}))
	if len(p.Series) != 2 {
		t.Fatalf("series = %d, want scenarios + front", len(p.Series))
	}
	scatter, front := p.Series[0], p.Series[1]
	if scatter.Name != "Scenarios" || front.Name != "Pareto Front" {
		t.Errorf("names = %q, %q", scatter.Name, front.Name)
	}
	if len(scatter.Points) != 18 {
		t.Errorf("scatter points = %d, want 18", len(scatter.Points))
	}
	if len(front.Points) == 0 || len(front.Points) >= len(scatter.Points) {
		t.Errorf("front points = %d", len(front.Points))
	}
	// The front line is sorted by cost for drawing.
	for i := 1; i < len(front.Points); i++ {
		if front.Points[i].X < front.Points[i-1].X {
			t.Error("front line not sorted by cost")
		}
	}
}

func TestSeriesNamesIncludeInputOnlyWhenMultiple(t *testing.T) {
	s := lammpsStore()
	p := ExecTimeVsNodes(s.Select(dataset.Filter{}))
	for _, sr := range p.Series {
		if strings.Contains(sr.Name, "atoms") {
			t.Errorf("single-input series name %q should be the SKU alias only", sr.Name)
		}
	}
	// Add a second input: names must disambiguate and the subtitle drops.
	s.Add(dataset.Point{ScenarioID: "x", AppName: "lammps", SKUAlias: "hb120rs_v3",
		NNodes: 1, InputDesc: "atoms=4M", ExecTimeSec: 5, CostUSD: 0.01})
	p = ExecTimeVsNodes(s.Select(dataset.Filter{}))
	foundQualified := false
	for _, sr := range p.Series {
		if strings.Contains(sr.Name, "(atoms=") {
			foundQualified = true
		}
	}
	if !foundQualified {
		t.Error("multi-input series should carry the input in their names")
	}
	if p.Subtitle != "" {
		t.Errorf("multi-input subtitle = %q, want empty", p.Subtitle)
	}
}

func TestBounds(t *testing.T) {
	var empty Plot
	x0, x1, y0, y1 := empty.Bounds()
	if x0 != 0 || x1 != 1 || y0 != 0 || y1 != 1 {
		t.Errorf("empty bounds = %v %v %v %v", x0, x1, y0, y1)
	}
	if !empty.Empty() {
		t.Error("empty plot should report Empty")
	}
	p := ExecTimeVsNodes(lammpsStore().Select(dataset.Filter{}))
	x0, x1, y0, y1 = p.Bounds()
	if x0 != 1 || x1 != 16 {
		t.Errorf("x bounds = %v..%v", x0, x1)
	}
	if y0 != 0 {
		t.Errorf("y floor = %v, want 0 (paper plots anchor at zero)", y0)
	}
	if y1 < 2760 {
		t.Errorf("y ceil = %v", y1)
	}
}

func TestRenderSVGWellFormed(t *testing.T) {
	for _, p := range []Plot{
		ExecTimeVsNodes(lammpsStore().Select(dataset.Filter{})),
		ExecTimeVsCost(lammpsStore().Select(dataset.Filter{})),
		Speedup(lammpsStore().Select(dataset.Filter{})),
		Efficiency(lammpsStore().Select(dataset.Filter{})),
		ParetoScatter(lammpsStore().Select(dataset.Filter{})),
	} {
		svg := string(RenderSVG(p))
		if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
			t.Errorf("%s: not a complete SVG document", p.Title)
		}
		for _, want := range []string{"<polyline", "<circle", p.Title, "<text"} {
			if p.Title == "Cost" && want == "<polyline" {
				continue // scatter-only plot has no lines
			}
			if !strings.Contains(svg, want) {
				t.Errorf("%s: SVG missing %s", p.Title, want)
			}
		}
		// Escaping sanity: no raw ampersands outside entities.
		if strings.Contains(svg, "& ") {
			t.Errorf("%s: unescaped ampersand", p.Title)
		}
	}
}

func TestRenderSVGEscapesLabels(t *testing.T) {
	p := Plot{Title: `a<b & "c"`, Series: []Series{{Name: "s", Points: []XY{{1, 1}, {2, 2}}}}}
	svg := string(RenderSVG(p))
	if strings.Contains(svg, `a<b`) {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "a&lt;b &amp; &quot;c&quot;") {
		t.Error("escaped title missing")
	}
}

func TestRenderASCII(t *testing.T) {
	p := ExecTimeVsNodes(lammpsStore().Select(dataset.Filter{}))
	out := RenderASCII(p, 60, 20)
	if !strings.Contains(out, "Exectime") || !strings.Contains(out, "atoms=864M") {
		t.Errorf("missing title/subtitle:\n%s", out)
	}
	if !strings.Contains(out, "hb120rs_v3") {
		t.Errorf("missing legend:\n%s", out)
	}
	// Marker characters appear in the grid.
	if !strings.ContainsAny(out, "ox+") {
		t.Errorf("no data markers:\n%s", out)
	}
	// Tiny dimensions are clamped, not crashed.
	if RenderASCII(p, 1, 1) == "" {
		t.Error("clamped render empty")
	}
	if !strings.Contains(RenderASCII(Plot{Title: "t"}, 40, 10), "(no data)") {
		t.Error("empty plot should say so")
	}
}

func TestTicks(t *testing.T) {
	ts := ticks(0, 100, 8)
	if len(ts) < 4 || len(ts) > 12 {
		t.Errorf("ticks(0,100) = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Errorf("ticks not increasing: %v", ts)
		}
	}
	if got := ticks(5, 5, 8); len(got) != 2 {
		t.Errorf("degenerate ticks = %v", got)
	}
}

func TestPlotString(t *testing.T) {
	p := ExecTimeVsNodes(lammpsStore().Select(dataset.Filter{}))
	s := p.String()
	if !strings.Contains(s, "3 series") || !strings.Contains(s, "18 points") {
		t.Errorf("String = %q", s)
	}
}

// TestSeriesMatchNaiveGrouping checks the one series cut every builder
// shares against a naive map grouping: over randomized selections in
// Select's canonical order — aliases that differ only in case, several
// inputs, repeated node counts — each series must hold exactly one
// (alias, input)'s points in selection order, the series must be ordered
// by legend, and a series is named by its legend only when the selection
// holds more than one input.
func TestSeriesMatchNaiveGrouping(t *testing.T) {
	for _, tc := range []struct{ alias, input, legend string }{
		{"x", "", "x"},
		{"hb120rs_v3", "atoms=864M", "hb120rs_v3 (atoms=864M)"},
	} {
		pts := []dataset.Point{
			{AppName: "a", SKUAlias: tc.alias, InputDesc: tc.input, NNodes: 1, ExecTimeSec: 2, CostUSD: 1},
			{AppName: "a", SKUAlias: tc.alias, InputDesc: tc.input + "-other", NNodes: 1, ExecTimeSec: 2, CostUSD: 1},
		}
		if got := ExecTimeVsNodes(pts).Series[0].Name; got != tc.legend {
			t.Errorf("legend of (%q, %q) = %q, want %q", tc.alias, tc.input, got, tc.legend)
		}
	}

	rng := rand.New(rand.NewSource(29))
	aliases := []string{"hb", "HB", "Hb", "hc44rs"}
	inputs := []string{"", "atoms=4M", "atoms=864M"}
	for trial := 0; trial < 200; trial++ {
		s := dataset.NewStore()
		nIn := 1 + rng.Intn(len(inputs))
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			s.Add(dataset.Point{
				ScenarioID:  fmt.Sprintf("t%d-%d", trial, i),
				AppName:     "app",
				SKUAlias:    aliases[rng.Intn(len(aliases))],
				InputDesc:   inputs[rng.Intn(nIn)],
				NNodes:      1 << rng.Intn(4), // few counts, so ties are common
				ExecTimeSec: float64(1 + rng.Intn(1000)),
				CostUSD:     float64(1+rng.Intn(100)) / 10,
			})
		}
		pts := s.Select(dataset.Filter{})

		type key struct{ alias, input string }
		naive := map[key][]dataset.Point{}
		distinctInputs := map[string]bool{}
		for _, p := range pts {
			k := key{p.SKUAlias, p.InputDesc}
			naive[k] = append(naive[k], p)
			distinctInputs[p.InputDesc] = true
		}
		legend := func(k key) string {
			if k.input == "" {
				return k.alias
			}
			return k.alias + " (" + k.input + ")"
		}
		keys := make([]key, 0, len(naive))
		for k := range naive {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return legend(keys[i]) < legend(keys[j]) })

		var wantNodes, wantSpeedup []Series
		for _, k := range keys {
			name := k.alias
			if len(distinctInputs) > 1 {
				name = legend(k)
			}
			g := naive[k]
			nodes := Series{Name: name}
			speedup := Series{Name: name}
			for _, p := range g {
				nodes.Points = append(nodes.Points, XY{X: float64(p.NNodes), Y: p.ExecTimeSec})
				speedup.Points = append(speedup.Points, XY{X: float64(p.NNodes), Y: g[0].ExecTimeSec / p.ExecTimeSec * float64(g[0].NNodes)})
			}
			wantNodes = append(wantNodes, nodes)
			if len(g) >= 2 {
				wantSpeedup = append(wantSpeedup, speedup)
			}
		}
		wantSubtitle := ""
		if len(distinctInputs) == 1 {
			wantSubtitle = pts[0].InputDesc
		}

		set := BuildSet(pts)
		if !reflect.DeepEqual(set.ExecTimeVsNodes.Series, wantNodes) {
			t.Fatalf("trial %d: ExecTimeVsNodes series\n got %+v\nwant %+v", trial, set.ExecTimeVsNodes.Series, wantNodes)
		}
		if !reflect.DeepEqual(set.Speedup.Series, wantSpeedup) {
			t.Fatalf("trial %d: Speedup series\n got %+v\nwant %+v", trial, set.Speedup.Series, wantSpeedup)
		}
		for _, p := range set.All() {
			if p.Subtitle != wantSubtitle {
				t.Fatalf("trial %d: %s subtitle = %q, want %q", trial, p.Title, p.Subtitle, wantSubtitle)
			}
		}
	}
}

// TestSharedLegendRendersDeterministically builds one selection whose two
// series share a legend — alias "x (y)" with no input and alias "x" at
// input "y" — and renders its set repeatedly. Every render of one
// generation must be the same bytes, since the API serves them under one
// strong ETag.
func TestSharedLegendRendersDeterministically(t *testing.T) {
	s := dataset.NewStore()
	for n := 1; n <= 3; n++ {
		s.Add(dataset.Point{ScenarioID: fmt.Sprintf("a%d", n), AppName: "app", SKUAlias: "x (y)", NNodes: n, ExecTimeSec: float64(100 / n), CostUSD: 1})
		s.Add(dataset.Point{ScenarioID: fmt.Sprintf("b%d", n), AppName: "app", SKUAlias: "x", InputDesc: "y", NNodes: n, ExecTimeSec: float64(300 / n), CostUSD: 2})
	}
	pts := s.Select(dataset.Filter{})
	var first [][]byte
	for i := 0; i < 50; i++ {
		var cur [][]byte
		for _, p := range BuildSet(pts).All() {
			cur = append(cur, RenderSVG(p))
		}
		if first == nil {
			first = cur
			continue
		}
		for j := range cur {
			if !bytes.Equal(cur[j], first[j]) {
				t.Fatalf("render %d: %s differs from the first render", i, SetNames[j])
			}
		}
	}
}

// TestTicksBounded feeds ranges whose step is below the float spacing of
// their values, or whose width overflows, and requires a bounded tick list
// for each: a tick loop whose step does not advance never ends.
func TestTicksBounded(t *testing.T) {
	for _, r := range [][2]float64{
		{1e17, 1e17 + 16},
		{-1e17 - 16, -1e17},
		{1 << 60, 1<<60 + 256},
		{0, 5e-324},
		{-1e308, 1e308},
		{0, 100},
	} {
		ts := ticks(r[0], r[1], 8)
		if len(ts) > 2*8+3 {
			t.Errorf("ticks(%v, %v) = %d ticks", r[0], r[1], len(ts))
		}
	}
	if got := ticks(1e17, 1e17+16, 8); !reflect.DeepEqual(got, []float64{1e17, 1e17 + 16}) {
		t.Errorf("ticks(1e17, 1e17+16) = %v, want the two ends", got)
	}
	p := Plot{Series: []Series{{Points: []XY{{1e17, 1}, {1e17 + 16, 2}}}}}
	if !strings.HasSuffix(string(RenderSVG(p)), "</svg>\n") {
		t.Error("render of a sub-ulp axis did not finish")
	}
}

// TestBoundsWidenZeroWidthAxes requires a positive width on an axis whose
// values are all equal, at any magnitude, so RenderSVG never divides zero
// by zero into NaN coordinates. Up to 2^52 the width stays 1.
func TestBoundsWidenZeroWidthAxes(t *testing.T) {
	for _, v := range []float64{0, 3, -7.5, 1 << 52, 1e17, -1e17, 1 << 60, 1e300, -1e300} {
		p := Plot{Series: []Series{{Points: []XY{{v, v}, {v, v}}}}}
		x0, x1, y0, y1 := p.Bounds()
		if !(x1 > x0) || !(y1 > y0) {
			t.Errorf("v=%g: bounds x %v..%v, y %v..%v: want a positive width on both axes", v, x0, x1, y0, y1)
		}
		if math.Abs(v) <= 1<<52 && x1 != v+1 {
			t.Errorf("v=%g: xmax = %v, want %v", v, x1, v+1)
		}
		if n := strings.Count(string(RenderSVG(p)), "NaN"); n > 0 {
			t.Errorf("v=%g: RenderSVG writes %d NaN coordinates", v, n)
		}
	}
}
