// Package pareto computes the Pareto front over (execution time, cost) that
// HPCAdvisor presents as advice (paper Section III-E, Figure 6, Listings
// 3-4): the set of executed scenarios not dominated by any other — no other
// scenario is both faster and cheaper.
package pareto

import (
	"fmt"
	"sort"
	"strings"

	"hpcadvisor/internal/dataset"
)

// Dominates reports whether a dominates b: a is no worse in both time and
// cost and strictly better in at least one.
func Dominates(a, b dataset.Point) bool {
	if a.ExecTimeSec > b.ExecTimeSec || a.CostUSD > b.CostUSD {
		return false
	}
	return a.ExecTimeSec < b.ExecTimeSec || a.CostUSD < b.CostUSD
}

// Front returns the Pareto-efficient points among the successful points,
// sorted by ascending execution time. The skyline sweep runs in O(n log n):
// sort by (time, cost) and keep points that strictly lower the running
// minimum cost.
//
// The sort is stable, which pins the tie-break for exact (time, cost)
// duplicates to "first in input order" — the same rule FrontNaive applies —
// and makes the output uniquely determined by the input sequence. The
// snapshot's columnar fronts (dataset.Snapshot.Advice and AdviceJSON),
// which serve every advice query, rely on that uniqueness to stay
// byte-identical to this function without sharing its code.
func Front(points []dataset.Point) []dataset.Point {
	var ok []dataset.Point
	for _, p := range points {
		if !p.Failed {
			ok = append(ok, p)
		}
	}
	if len(ok) == 0 {
		return nil
	}
	sort.SliceStable(ok, func(i, j int) bool {
		if ok[i].ExecTimeSec != ok[j].ExecTimeSec {
			return ok[i].ExecTimeSec < ok[j].ExecTimeSec
		}
		return ok[i].CostUSD < ok[j].CostUSD
	})
	var front []dataset.Point
	minCost := ok[0].CostUSD + 1
	for _, p := range ok {
		// The (time, cost) sort guarantees any same-time, higher-cost or
		// duplicate point sees minCost already at or below its own cost.
		if p.CostUSD < minCost {
			front = append(front, p)
			minCost = p.CostUSD
		}
	}
	return front
}

// FrontNaive is the O(n^2) dominance scan. It exists as the correctness
// oracle for property tests and as the baseline for the skyline ablation
// bench.
func FrontNaive(points []dataset.Point) []dataset.Point {
	var ok []dataset.Point
	for _, p := range points {
		if !p.Failed {
			ok = append(ok, p)
		}
	}
	var front []dataset.Point
	for i, p := range ok {
		dominated := false
		for j, q := range ok {
			if i == j {
				continue
			}
			if Dominates(q, p) {
				dominated = true
				break
			}
			// Exact duplicates: keep only the first occurrence.
			if q.ExecTimeSec == p.ExecTimeSec && q.CostUSD == p.CostUSD && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].ExecTimeSec < front[j].ExecTimeSec })
	return front
}

// SortOrder selects how advice rows are ordered.
type SortOrder int

// Advice orderings: the paper sorts by least execution time by default and
// offers cost ordering as an option.
const (
	ByTime SortOrder = iota
	ByCost
)

// Advice computes the front and orders it for presentation.
func Advice(points []dataset.Point, order SortOrder) []dataset.Point {
	front := Front(points)
	switch order {
	case ByCost:
		sort.Slice(front, func(i, j int) bool { return front[i].CostUSD < front[j].CostUSD })
	default:
		sort.Slice(front, func(i, j int) bool { return front[i].ExecTimeSec < front[j].ExecTimeSec })
	}
	return front
}

// FormatAdviceTable renders the front exactly like the paper's advice
// output (Listings 3 and 4):
//
//	Exectime(s)  Cost($)  Nodes  SKU
//	         34   0.5440     16  hb120rs_v3
func FormatAdviceTable(front []dataset.Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-6s %s\n", "Exectime(s)", "Cost($)", "Nodes", "SKU")
	for _, p := range front {
		fmt.Fprintf(&b, "%-12.0f %-8.4f %-6d %s\n", p.ExecTimeSec, p.CostUSD, p.NNodes, p.SKUAlias)
	}
	return b.String()
}

// Hypervolume measures the area dominated by the front up to a reference
// point (refTime, refCost); larger is better. The sampler evaluation uses
// the relative hypervolume error between a reduced collection's front and
// the full sweep's front.
func Hypervolume(front []dataset.Point, refTime, refCost float64) float64 {
	f := Front(front) // ensure sorted, non-dominated
	var hv float64
	prevTime := 0.0
	// Sweep time ascending; each point contributes a rectangle from its
	// time to the next point's time, at its cost distance to the
	// reference.
	for i, p := range f {
		if p.ExecTimeSec >= refTime || p.CostUSD >= refCost {
			continue
		}
		start := p.ExecTimeSec
		if start < prevTime {
			start = prevTime
		}
		end := refTime
		if i+1 < len(f) && f[i+1].ExecTimeSec < refTime {
			end = f[i+1].ExecTimeSec
		}
		if end > start {
			hv += (end - start) * (refCost - p.CostUSD)
		}
		prevTime = end
	}
	return hv
}

// FrontIDs returns the scenario IDs of the front, convenient for recall
// computations.
func FrontIDs(points []dataset.Point) map[string]bool {
	out := make(map[string]bool)
	for _, p := range Front(points) {
		out[p.ScenarioID] = true
	}
	return out
}

// Recall computes the fraction of reference-front scenarios recovered by a
// candidate front, in [0, 1].
func Recall(reference, candidate []dataset.Point) float64 {
	ref := FrontIDs(reference)
	if len(ref) == 0 {
		return 1
	}
	cand := FrontIDs(candidate)
	hit := 0
	for id := range ref {
		if cand[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(ref))
}
