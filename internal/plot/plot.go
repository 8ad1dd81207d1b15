// Package plot generates the four plot types HPCAdvisor produces
// (Section III-D): execution time vs number of nodes (Fig. 2), execution
// time vs cost (Fig. 3), speedup (Fig. 4), and efficiency (Fig. 5) — plus
// the Pareto-front scatter of Fig. 6. Plots are rendered as SVG files or
// ASCII charts (stdlib only).
//
// Every builder is a plain function of one selection: the rows
// dataset.Snapshot.Select returns, in its canonical (SKU alias, input,
// nodes) order. The builders take no filter and read no store; a caller
// selects once and passes the same rows to each, so a set built from one
// Select is consistent at that snapshot's generation.
package plot

import (
	"fmt"
	"math"
	"sort"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
)

// XY is one plotted point.
type XY struct {
	X float64
	Y float64
}

// Series is one curve: a VM type at one application input.
type Series struct {
	Name    string
	Points  []XY
	Scatter bool // draw markers only, no connecting line
	// Dashed draws the line dashed with open markers — the rendering of
	// model-predicted overlays, visually distinct from measured series.
	Dashed bool
	// Band draws the points as a closed translucent polygon (a prediction
	// interval band) instead of a line or markers; Points trace the lower
	// edge left-to-right then the upper edge right-to-left. Band series with
	// an empty Name are skipped in legends.
	Band bool
}

// Plot is a renderable chart.
type Plot struct {
	Title    string
	Subtitle string // the paper shows the application input here, e.g. "atoms=860M"
	XLabel   string
	YLabel   string
	Series   []Series
}

// ExecTimeVsNodes builds the paper's Figure 2: execution time as a function
// of node count, one series per VM type.
func ExecTimeVsNodes(pts []dataset.Point) Plot {
	p := Plot{
		Title:  "Exectime",
		XLabel: "Number of VMs",
		YLabel: "Execution time (seconds)",
	}
	buildSeries(&p, pts, func(pt dataset.Point) XY {
		return XY{X: float64(pt.NNodes), Y: pt.ExecTimeSec}
	})
	return p
}

// ExecTimeVsCost builds the paper's Figure 3: cost against execution time,
// one series per VM type (scatter style, as each point is one scenario).
func ExecTimeVsCost(pts []dataset.Point) Plot {
	p := Plot{
		Title:  "Cost",
		XLabel: "Execution time (seconds)",
		YLabel: "Cost (USD)",
	}
	buildSeries(&p, pts, func(pt dataset.Point) XY {
		return XY{X: pt.ExecTimeSec, Y: pt.CostUSD}
	})
	for i := range p.Series {
		p.Series[i].Scatter = true
		sort.Slice(p.Series[i].Points, func(a, b int) bool { return p.Series[i].Points[a].X < p.Series[i].Points[b].X })
	}
	return p
}

// Speedup builds the paper's Figure 4: s(n) = T(base)/T(n) per series,
// where base is the smallest measured node count (1 in the paper's sweeps).
func Speedup(pts []dataset.Point) Plot {
	p := Plot{
		Title:  "Speedup",
		XLabel: "Number of VMs",
		YLabel: "Speedup",
	}
	buildRelativeSeries(&p, pts, func(base dataset.Point, pt dataset.Point) XY {
		return XY{X: float64(pt.NNodes), Y: base.ExecTimeSec / pt.ExecTimeSec * float64(base.NNodes)}
	})
	return p
}

// Efficiency builds the paper's Figure 5: e(n) = speedup(n)/n. Values above
// 1 are super-linear.
func Efficiency(pts []dataset.Point) Plot {
	p := Plot{
		Title:  "Efficiency",
		XLabel: "Number of VMs",
		YLabel: "Efficiency",
	}
	buildRelativeSeries(&p, pts, func(base dataset.Point, pt dataset.Point) XY {
		speedup := base.ExecTimeSec / pt.ExecTimeSec * float64(base.NNodes)
		return XY{X: float64(pt.NNodes), Y: speedup / float64(pt.NNodes)}
	})
	return p
}

// ParetoScatter builds the paper's Figure 6: every scenario as a scatter
// point plus the Pareto front as a line.
func ParetoScatter(pts []dataset.Point) Plot {
	p := Plot{
		Title:  "Advice based on pareto front",
		XLabel: "Cost (USD)",
		YLabel: "Execution time (seconds)",
	}
	var scatter Series
	scatter.Name = "Scenarios"
	scatter.Scatter = true
	for _, pt := range pts {
		scatter.Points = append(scatter.Points, XY{X: pt.CostUSD, Y: pt.ExecTimeSec})
	}
	var frontLine Series
	frontLine.Name = "Pareto Front"
	for _, pt := range pareto.Front(pts) {
		frontLine.Points = append(frontLine.Points, XY{X: pt.CostUSD, Y: pt.ExecTimeSec})
	}
	sort.Slice(frontLine.Points, func(i, j int) bool { return frontLine.Points[i].X < frontLine.Points[j].X })
	p.Series = []Series{scatter, frontLine}
	p.Subtitle = subtitleFor(pts)
	return p
}

// buildSeries maps every point of each series directly.
func buildSeries(p *Plot, pts []dataset.Point, toXY func(dataset.Point) XY) {
	for _, g := range groups(pts) {
		s := Series{Name: g.name}
		for _, pt := range g.pts {
			s.Points = append(s.Points, toXY(pt))
		}
		p.Series = append(p.Series, s)
	}
	p.Subtitle = subtitleFor(pts)
}

// buildRelativeSeries maps each point relative to its series' smallest-n
// baseline; series without at least two points are omitted. The subtitle
// still reflects every point, including those in omitted series.
func buildRelativeSeries(p *Plot, pts []dataset.Point, toXY func(base, pt dataset.Point) XY) {
	for _, g := range groups(pts) {
		if len(g.pts) < 2 {
			continue
		}
		base := g.pts[0] // sorted by node count; the paper uses single node
		s := Series{Name: g.name}
		for _, pt := range g.pts {
			s.Points = append(s.Points, toXY(base, pt))
		}
		p.Series = append(p.Series, s)
	}
	p.Subtitle = subtitleFor(pts)
}

// group is one plotted line: a VM type at one application input.
type group struct {
	legend string          // "alias (input)", or the alias alone for no input
	name   string          // the series name: the legend when pts hold several inputs, else the alias
	pts    []dataset.Point // a run of the selection, sorted by node count
}

// groups cuts pts, in Select's canonical order, into one group per
// contiguous run of equal (SKUAlias, InputDesc), and orders the groups by
// legend. The sort is stable, so two groups that share a legend (alias
// "x (y)" with no input, alias "x" at input "y") keep their canonical order
// and every build of one selection is the same. The runs are subslices of
// pts; the three-index slice makes a stray append reallocate.
func groups(pts []dataset.Point) []group {
	var gs []group
	multi := false
	for start := 0; start < len(pts); {
		a, in := pts[start].SKUAlias, pts[start].InputDesc
		end := start + 1
		for end < len(pts) && pts[end].SKUAlias == a && pts[end].InputDesc == in {
			end++
		}
		g := group{legend: a, name: a, pts: pts[start:end:end]}
		if in != "" {
			g.legend = a + " (" + in + ")"
		}
		multi = multi || in != pts[0].InputDesc
		gs = append(gs, g)
		start = end
	}
	sort.SliceStable(gs, func(i, j int) bool { return gs[i].legend < gs[j].legend })
	if multi {
		for i := range gs {
			gs[i].name = gs[i].legend
		}
	}
	return gs
}

// subtitleFor reproduces the paper's plot subtitles ("atoms=860M"): the
// input description when all points share one.
func subtitleFor(pts []dataset.Point) string {
	if len(pts) == 0 {
		return ""
	}
	desc := pts[0].InputDesc
	for _, p := range pts {
		if p.InputDesc != desc {
			return ""
		}
	}
	return desc
}

// Bounds returns the data extent of the plot, padded for rendering. Empty
// plots get a unit box.
func (p Plot) Bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range p.Series {
		for _, pt := range s.Points {
			xmin = math.Min(xmin, pt.X)
			xmax = math.Max(xmax, pt.X)
			ymin = math.Min(ymin, pt.Y)
			ymax = math.Max(ymax, pt.Y)
		}
	}
	if math.IsInf(xmin, 1) {
		return 0, 1, 0, 1
	}
	if xmin == xmax {
		xmax = widen(xmin)
	}
	if ymin == ymax {
		ymax = widen(ymin)
	}
	// Anchor Y at zero like the paper's plots, and pad the top.
	if ymin > 0 {
		ymin = 0
	}
	ymax += (ymax - ymin) * 0.05
	return xmin, xmax, ymin, ymax
}

// widen returns the upper end of a zero-width axis at v: v+1, or, past
// 2^52 where adding 1 may round back to v, v plus one part in 2^52 of its
// magnitude, which is at least one step of v's precision.
func widen(v float64) float64 {
	return v + math.Max(1, math.Abs(v)*0x1p-52)
}

// Empty reports whether the plot has no data points.
func (p Plot) Empty() bool {
	for _, s := range p.Series {
		if len(s.Points) > 0 {
			return false
		}
	}
	return true
}

// String summarizes the plot for logs.
func (p Plot) String() string {
	n := 0
	for _, s := range p.Series {
		n += len(s.Points)
	}
	return fmt.Sprintf("%s (%d series, %d points)", p.Title, len(p.Series), n)
}
