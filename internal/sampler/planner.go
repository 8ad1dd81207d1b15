package sampler

import (
	"fmt"
	"sort"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/predictor"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/scenario"
)

// Ranked is a candidate scenario with its expected return on investment.
type Ranked struct {
	Task *scenario.Task
	// Score is the expected Pareto information gain per dollar of
	// collection cost; exploration candidates get an optimistic bonus.
	Score float64
	// Rationale explains the ranking for the user.
	Rationale string
}

// PlanNext ranks pending candidate scenarios by expected "return on
// investment" for the Pareto front — the paper's Section III-F vision of a
// stand-alone module that picks which scenarios to run next: "identify
// which new scenarios would need to be executed to obtain the best return
// on investment, i.e. scenarios that would help provide more information
// for generating the Pareto front."
//
// For candidates whose (application, input, SKU) group has a fit that
// passes the predictor's default gates, the fitted model predicts the new
// point; the score is the hypervolume the prediction would add to the
// front of its own (application, input), divided by its predicted
// collection cost. Every other candidate is an exploration, scored by a
// bonus that prefers cheap probes (small node counts, cheap SKUs). All
// candidates are judged on one pinned snapshot of the store. The top k
// candidates are returned, highest score first.
func PlanNext(store *dataset.Store, candidates []*scenario.Task, prices *pricing.PriceBook, region string, k int) []Ranked {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	sn := store.Snapshot()
	byApp := make(map[string][]dataset.Point)
	// One front per (application, input): its measured points, their fits,
	// and the predictions made in it, which its hypervolume reference box
	// must cover (a prediction may be faster but costlier than anything
	// measured).
	type front struct {
		app            string
		input          map[string]string
		measured       []dataset.Point
		fits           []predictor.GroupFit
		predicted      []dataset.Point
		refT, refC, hv float64
	}
	var fronts []*front
	frontOf := func(t *scenario.Task) *front {
		for _, f := range fronts {
			if f.app == t.AppName && sameInput(f.input, t.AppInput) {
				return f
			}
		}
		pts, ok := byApp[t.AppName]
		if !ok {
			pts = sn.Select(dataset.Filter{AppName: t.AppName})
			byApp[t.AppName] = pts
		}
		f := &front{app: t.AppName, input: t.AppInput, measured: withInput(pts, t.AppInput)}
		f.fits = predictor.Fit(f.measured, predictor.Config{})
		fronts = append(fronts, f)
		return f
	}

	type prediction struct {
		task  *scenario.Task
		point dataset.Point
		front *front
	}
	var predictions []prediction
	var explorations []*scenario.Task
	for _, t := range candidates {
		if t.Status != scenario.StatusPending {
			continue
		}
		hourly, err := prices.Hourly(region, t.SKU)
		if err != nil {
			continue
		}
		f := frontOf(t)
		fit, ok := groupFit(t, f.fits)
		if !ok || fit.Predict(t.NNodes) <= 0 {
			explorations = append(explorations, t)
			continue
		}
		p := dataset.Point{ScenarioID: t.ID, ExecTimeSec: fit.Predict(t.NNodes)}
		p.CostUSD = pricing.CostAt(hourly, t.NNodes, p.ExecTimeSec)
		f.predicted = append(f.predicted, p)
		predictions = append(predictions, prediction{task: t, point: p, front: f})
	}
	for _, f := range fronts {
		f.refT, f.refC = referencePoint(append(f.predicted, f.measured...))
		if f.refT == 0 {
			f.refT, f.refC = 1, 1
		}
		f.hv = pareto.Hypervolume(f.measured, f.refT, f.refC)
	}

	var ranked []Ranked
	for _, p := range predictions {
		f := p.front
		gain := pareto.Hypervolume(append(f.measured[:len(f.measured):len(f.measured)], p.point), f.refT, f.refC) - f.hv
		if gain < 0 {
			gain = 0
		}
		spend := p.point.CostUSD
		if spend <= 0 {
			spend = 1e-6
		}
		ranked = append(ranked, Ranked{
			Task:  p.task,
			Score: gain / spend,
			Rationale: fmt.Sprintf("predicted %.0f s/$%.4f adds %.3g hypervolume per dollar",
				p.point.ExecTimeSec, p.point.CostUSD, gain/spend),
		})
	}
	for _, t := range explorations {
		hourly, err := prices.Hourly(region, t.SKU)
		if err != nil {
			continue
		}
		// Exploration: no gated fit for this (SKU, input) yet. Prefer
		// cheap probes; the bonus shrinks with expected spend so small node
		// counts on cheap SKUs run first.
		probeCost := pricing.CostAt(hourly, t.NNodes, 600) // assume a 10-minute probe
		ranked = append(ranked, Ranked{
			Task:      t,
			Score:     explorationBonus / (1 + probeCost),
			Rationale: fmt.Sprintf("unexplored %s at %d nodes (probe ~$%.2f)", t.SKUAlias, t.NNodes, probeCost),
		})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score })
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

// explorationBonus makes unexplored combinations competitive with
// extrapolated ones: exploring is how the front is discovered at all.
const explorationBonus = 1000.0
