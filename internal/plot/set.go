package plot

import "hpcadvisor/internal/dataset"

// Set is the full set of plots the tool generates for a filter: the paper's
// Section III-D four plots plus the Figure 6 Pareto scatter. core.PlotSet
// aliases this type.
type Set struct {
	ExecTimeVsNodes Plot
	ExecTimeVsCost  Plot
	Speedup         Plot
	Efficiency      Plot
	Pareto          Plot
}

// SetNames are the canonical artifact names of the five plots, in
// presentation order — the SVG file basenames and the GUI's plot.svg?name=
// values.
var SetNames = []string{"exectime_vs_nodes", "exectime_vs_cost", "speedup", "efficiency", "pareto"}

// BuildSet computes all five plots from one selection, in Select's
// canonical order, so a set built from one Select is internally consistent
// at that snapshot's generation.
func BuildSet(pts []dataset.Point) Set {
	return Set{
		ExecTimeVsNodes: ExecTimeVsNodes(pts),
		ExecTimeVsCost:  ExecTimeVsCost(pts),
		Speedup:         Speedup(pts),
		Efficiency:      Efficiency(pts),
		Pareto:          ParetoScatter(pts),
	}
}

// All returns the plots in presentation order (matching SetNames).
func (s Set) All() []Plot {
	return []Plot{s.ExecTimeVsNodes, s.ExecTimeVsCost, s.Speedup, s.Efficiency, s.Pareto}
}

// ByName returns the named plot of the set; ok is false for unknown names.
func (s Set) ByName(name string) (Plot, bool) {
	switch name {
	case "exectime_vs_nodes":
		return s.ExecTimeVsNodes, true
	case "exectime_vs_cost":
		return s.ExecTimeVsCost, true
	case "speedup":
		return s.Speedup, true
	case "efficiency":
		return s.Efficiency, true
	case "pareto":
		return s.Pareto, true
	}
	return Plot{}, false
}
