package plot

import (
	"fmt"
	"math"
	"strings"
)

// SVG geometry.
const (
	svgW       = 640
	svgH       = 440
	svgMarginL = 70
	svgMarginR = 20
	svgMarginT = 60
	svgMarginB = 55
)

// seriesColors cycles across series; the first three match the paper's
// figure palette order loosely (blue, orange, green).
var seriesColors = []string{"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2"}

// RenderSVG renders the plot as a standalone SVG document.
func RenderSVG(p Plot) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		svgW, svgH, svgW, svgH)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	fmt.Fprintf(&b, `<text x="%d" y="24" text-anchor="middle" font-family="sans-serif" font-size="16" font-weight="bold">%s</text>`+"\n",
		svgW/2, escape(p.Title))
	if p.Subtitle != "" {
		fmt.Fprintf(&b, `<text x="%d" y="42" text-anchor="middle" font-family="sans-serif" font-size="12" fill="#555">%s</text>`+"\n",
			svgW/2, escape(p.Subtitle))
	}

	xmin, xmax, ymin, ymax := p.Bounds()
	plotW := float64(svgW - svgMarginL - svgMarginR)
	plotH := float64(svgH - svgMarginT - svgMarginB)
	tx := func(x float64) float64 { return float64(svgMarginL) + (x-xmin)/(xmax-xmin)*plotW }
	ty := func(y float64) float64 { return float64(svgH-svgMarginB) - (y-ymin)/(ymax-ymin)*plotH }

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		svgMarginL, svgH-svgMarginB, svgW-svgMarginR, svgH-svgMarginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		svgMarginL, svgMarginT, svgMarginL, svgH-svgMarginB)

	// Ticks and grid.
	for _, t := range ticks(xmin, xmax, 8) {
		x := tx(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>`+"\n",
			x, svgMarginT, x, svgH-svgMarginB)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			x, svgH-svgMarginB+16, formatTick(t))
	}
	for _, t := range ticks(ymin, ymax, 8) {
		y := ty(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			svgMarginL, y, svgW-svgMarginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			svgMarginL-6, y+4, formatTick(t))
	}

	// Axis labels.
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" font-family="sans-serif" font-size="13">%s</text>`+"\n",
		svgMarginL+int(plotW/2), svgH-12, escape(p.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" text-anchor="middle" font-family="sans-serif" font-size="13" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		svgMarginT+int(plotH/2), svgMarginT+int(plotH/2), escape(p.YLabel))

	colors := assignColors(p.Series)

	// Series.
	for i, s := range p.Series {
		color := colors[i]
		if s.Band {
			if len(s.Points) > 2 {
				var pts []string
				for _, pt := range s.Points {
					pts = append(pts, fmt.Sprintf("%.1f,%.1f", tx(pt.X), ty(pt.Y)))
				}
				fmt.Fprintf(&b, `<polygon points="%s" fill="%s" fill-opacity="0.15" stroke="none"/>`+"\n",
					strings.Join(pts, " "), color)
			}
			continue
		}
		if !s.Scatter && len(s.Points) > 1 {
			dash := ""
			if s.Dashed {
				dash = ` stroke-dasharray="6 4"`
			}
			var pts []string
			for _, pt := range s.Points {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", tx(pt.X), ty(pt.Y)))
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"%s/>`+"\n",
				strings.Join(pts, " "), color, dash)
		}
		for _, pt := range s.Points {
			if s.Dashed {
				// Open markers distinguish predicted points from measured.
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="white" stroke="%s" stroke-width="1.5"/>`+"\n",
					tx(pt.X), ty(pt.Y), color)
			} else {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s"/>`+"\n", tx(pt.X), ty(pt.Y), color)
			}
		}
	}

	// Legend along the bottom, like the paper's figures.
	lx := float64(svgMarginL)
	for i, s := range p.Series {
		if s.Band && s.Name == "" {
			continue
		}
		color := colors[i]
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="10" height="10" fill="%s"/>`+"\n", lx, svgMarginT-14, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+14, svgMarginT-5, escape(s.Name))
		lx += 18 + float64(len(s.Name))*7
	}

	b.WriteString("</svg>\n")
	return []byte(b.String())
}

// assignColors walks the palette across the series. Only non-band series
// advance the palette; an interval band borrows the color of the curve
// that follows it, so a band is always tinted like the prediction it
// belongs to.
func assignColors(series []Series) []string {
	colors := make([]string, len(series))
	ci := 0
	for i, s := range series {
		if !s.Band {
			colors[i] = seriesColors[ci%len(seriesColors)]
			ci++
		}
	}
	next := seriesColors[ci%len(seriesColors)]
	for i := len(series) - 1; i >= 0; i-- {
		if series[i].Band {
			colors[i] = next
		} else {
			next = colors[i]
		}
	}
	return colors
}

// RenderASCII renders the plot as a text chart for terminal use.
func RenderASCII(p Plot, width, height int) string {
	if width < 30 {
		width = 30
	}
	if height < 10 {
		height = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s", p.Title)
	if p.Subtitle != "" {
		fmt.Fprintf(&b, "  [%s]", p.Subtitle)
	}
	b.WriteString("\n")
	if p.Empty() {
		b.WriteString("(no data)\n")
		return b.String()
	}

	xmin, xmax, ymin, ymax := p.Bounds()
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	markers := []rune{'o', 'x', '+', '*', '#', '@', '%'}
	for si, s := range p.Series {
		if s.Band {
			continue // interval bands have no ASCII rendering
		}
		m := markers[si%len(markers)]
		if s.Dashed {
			m = '.'
		}
		for _, pt := range s.Points {
			col := int((pt.X - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((pt.Y-ymin)/(ymax-ymin)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = m
			}
		}
	}
	for i, row := range grid {
		yval := ymax - (ymax-ymin)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%10s |%s\n", formatTick(yval), string(row))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-*s%s\n", "", width-len(formatTick(xmax)), formatTick(xmin), formatTick(xmax))
	fmt.Fprintf(&b, "x: %s, y: %s\n", p.XLabel, p.YLabel)
	for si, s := range p.Series {
		if s.Band {
			continue
		}
		m := markers[si%len(markers)]
		if s.Dashed {
			m = '.'
		}
		fmt.Fprintf(&b, "  %c = %s\n", m, s.Name)
	}
	return b.String()
}

// ticks produces up to n rounded tick positions covering [lo, hi]. A range
// narrower than the float spacing of its values (1e17 to 1e17+16) gets a
// step that does not advance t; it falls back to the two ends.
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 || hi <= lo {
		return []float64{lo, hi}
	}
	rawStep := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(rawStep)))
	var step float64
	for _, m := range []float64{1, 2, 2.5, 5, 10} {
		step = m * mag
		if step >= rawStep {
			break
		}
	}
	start := math.Ceil(lo/step) * step
	var out []float64
	for t := start; t <= hi+step/1e6; t += step {
		if t+step == t {
			return []float64{lo, hi}
		}
		out = append(out, t)
	}
	return out
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 10000:
		return fmt.Sprintf("%.3g", v)
	case av >= 10 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	case av >= 0.01:
		return fmt.Sprintf("%.2f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
