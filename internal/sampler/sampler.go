// Package sampler implements the scenario-reduction strategies of the
// paper's Section III-F ("Optimizations for scenario generation and
// executions") as pluggable planners for the collector:
//
//   - AggressiveDiscard: once there is evidence, at a given threshold, that
//     a VM type will not reach the Pareto front, all its remaining scenarios
//     are skipped.
//   - PerfFactor: the predictor's scaling model (internal/predictor: Amdahl
//     or a power law, whichever fits better), fitted over the scenarios
//     already executed, predicts the runtime of candidate scenarios;
//     candidates whose predicted position cannot reach the front are
//     skipped ("fixed performance factor" in the paper).
//   - BottleneckAware: infrastructure metrics from executed scenarios
//     (network-bound classification) prune larger node counts that can only
//     add cost.
//
// These were "under development" in the paper; this package is a complete
// implementation evaluated by the sampler ablation benches against the full
// sweep. PerfFactor and the return-on-investment planner (PlanNext) predict
// through the same fits that serve "advice -predict", so the curve that
// decides what runs is the curve the advice shows.
package sampler

import (
	"fmt"
	"math"
	"sort"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/predictor"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/scenario"
)

// Fixed thresholds of the strategies.
const (
	// discardMinPoints is AggressiveDiscard's evidence threshold: a SKU is
	// discarded only after this many executed scenarios.
	discardMinPoints = 2
	// perfFactorMinR2 is PerfFactor's skip gate. It is stricter than the
	// predictor's advice gate (predictor.DefaultMinR2) because a skipped
	// scenario is never revisited.
	perfFactorMinR2 = 0.95
	// perfFactorHeadroom shrinks a predicted point before the dominance
	// test, so near-front candidates still run.
	perfFactorHeadroom = 0.10
	// bottleneckMinGain is the speedup per node doubling below which
	// BottleneckAware considers further scaling pointless.
	bottleneckMinGain = 1.15
)

// Full is the no-op planner: every scenario runs (the paper's default
// behaviour and the baseline for all ablations).
type Full struct{}

// Decide always runs.
func (Full) Decide(t *scenario.Task, store *dataset.Store) (bool, string) { return true, "" }

// relevant selects completed points comparable to the task: same
// application, same input parameters.
func relevant(t *scenario.Task, store *dataset.Store) []dataset.Point {
	return withInput(store.Select(dataset.Filter{AppName: t.AppName}), t.AppInput)
}

// withInput keeps the points of pts run with the given input. Failed points
// are excluded explicitly (not just by the Select default): they carry
// ExecTimeSec = 0, and a single one would make a VM type look infinitely
// fast to every planner.
func withInput(pts []dataset.Point, input map[string]string) []dataset.Point {
	var out []dataset.Point
	for _, p := range pts {
		if !p.Failed && sameInput(p.AppInput, input) {
			out = append(out, p)
		}
	}
	return out
}

func sameInput(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// groupFit finds the task's group among predictor fits: the task's SKU and
// its exact input. A pending task has no InputDesc, so the input is matched
// on the fitted group's AppInput.
func groupFit(t *scenario.Task, fits []predictor.GroupFit) (predictor.GroupFit, bool) {
	for _, g := range fits {
		if g.SKU == t.SKU && sameInput(g.AppInput, t.AppInput) {
			return g, true
		}
	}
	return predictor.GroupFit{}, false
}

// AggressiveDiscard skips every remaining scenario of a VM type once the
// type's executed scenarios are all dominated by other types with margin.
type AggressiveDiscard struct {
	// Margin is the dominance margin: a point counts as hopeless only if
	// some other-SKU front point beats it by (1+Margin) in both time and
	// cost (default 0.10).
	Margin float64
}

// Decide implements collector.Planner.
func (d AggressiveDiscard) Decide(t *scenario.Task, store *dataset.Store) (bool, string) {
	margin := d.Margin
	if margin <= 0 {
		margin = 0.10
	}
	pts := relevant(t, store)
	var mine, others []dataset.Point
	for _, p := range pts {
		if p.SKU == t.SKU {
			mine = append(mine, p)
		} else {
			others = append(others, p)
		}
	}
	if len(mine) < discardMinPoints || len(others) == 0 {
		return true, ""
	}
	front := pareto.Front(others)
	for _, p := range mine {
		if !dominatedWithMargin(p, front, margin) {
			return true, "" // still competitive
		}
	}
	return false, fmt.Sprintf("sampler: %s discarded — all %d executed scenarios dominated by other VM types beyond %.0f%% margin",
		t.SKUAlias, len(mine), margin*100)
}

func dominatedWithMargin(p dataset.Point, front []dataset.Point, margin float64) bool {
	for _, q := range front {
		if q.ExecTimeSec*(1+margin) <= p.ExecTimeSec && q.CostUSD*(1+margin) <= p.CostUSD {
			return true
		}
	}
	return false
}

// PerfFactor predicts candidate runtimes from the predictor's fit of the
// candidate's (application, input, SKU) group and skips candidates whose
// predicted (time, cost) cannot reach the Pareto front. The fit must rest on
// at least predictor.DefaultMinPoints distinct node counts and pass the
// stricter perfFactorMinR2 gate; otherwise the scenario runs.
type PerfFactor struct {
	// Prices and Region compute the predicted cost of candidates.
	Prices *pricing.PriceBook
	Region string
}

// Decide implements collector.Planner.
func (pf PerfFactor) Decide(t *scenario.Task, store *dataset.Store) (bool, string) {
	if pf.Prices == nil || pf.Region == "" {
		return true, ""
	}
	pts := relevant(t, store)
	fit, ok := groupFit(t, predictor.Fit(pts, predictor.Config{MinR2: perfFactorMinR2}))
	if !ok {
		return true, ""
	}
	predTime := fit.Predict(t.NNodes)
	if predTime <= 0 || math.IsNaN(predTime) {
		return true, ""
	}
	predCost, err := pf.Prices.Cost(pf.Region, t.SKU, t.NNodes, predTime)
	if err != nil {
		return true, ""
	}
	// Would the predicted point, shrunk by the headroom, still be dominated
	// by what we already measured? Then running it cannot improve the
	// front.
	candidate := dataset.Point{ExecTimeSec: predTime / (1 + perfFactorHeadroom), CostUSD: predCost / (1 + perfFactorHeadroom)}
	for _, q := range pareto.Front(pts) {
		if pareto.Dominates(q, candidate) {
			return false, fmt.Sprintf(
				"sampler: predicted %.0fs/$%.4f (%s fit R²=%.3f) is off-front even with %.0f%% headroom",
				predTime, predCost, fit.Model, fit.R2, perfFactorHeadroom*100)
		}
	}
	return true, ""
}

// BottleneckAware skips node counts above the point where the
// infrastructure monitor shows the workload has become network bound and
// scaling gains have collapsed.
type BottleneckAware struct{}

// Decide implements collector.Planner.
func (BottleneckAware) Decide(t *scenario.Task, store *dataset.Store) (bool, string) {
	var mine []dataset.Point
	for _, p := range relevant(t, store) {
		if p.SKU == t.SKU {
			mine = append(mine, p)
		}
	}
	if len(mine) < 2 {
		return true, ""
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].NNodes < mine[j].NNodes })
	last := mine[len(mine)-1]
	prev := mine[len(mine)-2]
	if t.NNodes <= last.NNodes {
		return true, ""
	}
	if last.Bottleneck != monitor.BottleneckNetwork {
		return true, ""
	}
	// Observed gain, normalized to one doubling.
	nodeRatio := float64(last.NNodes) / float64(prev.NNodes)
	if nodeRatio <= 1 {
		return true, ""
	}
	gain := prev.ExecTimeSec / last.ExecTimeSec
	perDoubling := math.Pow(gain, math.Log(2)/math.Log(nodeRatio))
	if perDoubling < bottleneckMinGain {
		return false, fmt.Sprintf(
			"sampler: network bound at %d nodes with %.2fx gain per doubling (< %.2fx); skipping %d nodes",
			last.NNodes, perDoubling, bottleneckMinGain, t.NNodes)
	}
	return true, ""
}

// Composite chains planners; a scenario runs only if every planner agrees.
type Composite struct {
	Planners []interface {
		Decide(t *scenario.Task, store *dataset.Store) (bool, string)
	}
}

// Decide implements collector.Planner.
func (c Composite) Decide(t *scenario.Task, store *dataset.Store) (bool, string) {
	for _, p := range c.Planners {
		if run, reason := p.Decide(t, store); !run {
			return false, reason
		}
	}
	return true, ""
}

// Outcome summarizes a sampling strategy against the full sweep, the
// measurement reported by the ablation benches and EXPERIMENTS.md.
type Outcome struct {
	Name              string
	Ran               int
	Skipped           int
	CollectionCostUSD float64
	// FrontRecall is the fraction of the full sweep's Pareto front the
	// reduced collection recovered.
	FrontRecall float64
	// HypervolumeErrPct is the relative hypervolume loss of the reduced
	// front versus the full front.
	HypervolumeErrPct float64
	// CostSavedPct is collection cost saved versus the full sweep.
	CostSavedPct float64
}

// Evaluate compares a reduced collection to the full sweep.
func Evaluate(name string, full, reduced *dataset.Store, fullCost, reducedCost float64, ran, skipped int) Outcome {
	fullPts := full.Select(dataset.Filter{})
	redPts := reduced.Select(dataset.Filter{})
	refT, refC := referencePoint(fullPts)
	hvFull := pareto.Hypervolume(fullPts, refT, refC)
	hvRed := pareto.Hypervolume(redPts, refT, refC)
	out := Outcome{
		Name:              name,
		Ran:               ran,
		Skipped:           skipped,
		CollectionCostUSD: reducedCost,
		FrontRecall:       pareto.Recall(fullPts, redPts),
	}
	if hvFull > 0 {
		out.HypervolumeErrPct = (hvFull - hvRed) / hvFull * 100
	}
	if fullCost > 0 {
		out.CostSavedPct = (fullCost - reducedCost) / fullCost * 100
	}
	return out
}

func referencePoint(pts []dataset.Point) (refT, refC float64) {
	for _, p := range pts {
		if p.Failed {
			continue
		}
		refT = math.Max(refT, p.ExecTimeSec)
		refC = math.Max(refC, p.CostUSD)
	}
	return refT * 1.1, refC * 1.1
}

// String renders the outcome as one report row.
func (o Outcome) String() string {
	return fmt.Sprintf("%-20s ran=%-3d skipped=%-3d cost=$%-8.2f saved=%5.1f%% recall=%4.0f%% hv_err=%5.2f%%",
		o.Name, o.Ran, o.Skipped, o.CollectionCostUSD, o.CostSavedPct, o.FrontRecall*100, o.HypervolumeErrPct)
}
