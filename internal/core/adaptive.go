package core

import (
	"errors"
	"fmt"

	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/sampler"
	"hpcadvisor/internal/scenario"
)

// CollectAdaptive is the budget-driven collection mode: instead of sweeping
// the task list in order, each step asks the stand-alone planner
// (sampler.PlanNext) for the scenario with the best expected Pareto
// information gain per dollar, runs exactly that scenario, and stops when
// the accumulated collection cost reaches budgetUSD or no candidates
// remain. This realizes the paper's Section III-F goal of obtaining the
// advice "with minimal or no executions in the cloud" under an explicit
// spending cap.
//
// Pool reuse across steps is weaker than in the ordered sweep (the planner
// may alternate VM types), so adaptive mode trades some extra node
// provisioning for running far fewer scenarios.
func (a *Advisor) CollectAdaptive(deploymentName string, cfg *config.Config, budgetUSD float64, opts CollectOptions) (*collector.Report, error) {
	if budgetUSD <= 0 {
		return nil, fmt.Errorf("core: adaptive collection needs a positive budget, got %.2f", budgetUSD)
	}
	return a.withCollection(deploymentName, cfg, func(col *collector.Collector, list *scenario.List) (*collector.Report, error) {
		svc := col.Service
		agg := &collector.Report{NodeSecondsBySKU: make(map[string]float64)}
		start := svc.Clock.Now()
		spent := func() (float64, error) {
			return col.PriceNodeSeconds(svc.NodeSecondsBySKU(), opts.UseSpot)
		}

		for {
			used, err := spent()
			if err != nil {
				return agg, err
			}
			if used >= budgetUSD {
				break
			}
			ranked := sampler.PlanNext(a.Store, list.Pending(), a.Prices, col.Region, 1)
			if len(ranked) == 0 {
				break
			}
			sub := &scenario.List{Tasks: []*scenario.Task{ranked[0].Task}}
			r, err := col.Run(sub, a.Store, collector.Options{
				DeletePoolAfter: opts.DeletePoolAfter,
				MaxAttempts:     opts.MaxAttempts,
				UseSpot:         opts.UseSpot,
				Progress:        opts.Progress,
				Interrupt:       opts.Interrupt,
				Backoff:         opts.Backoff,
				Breaker:         opts.Breaker,
				Stats:           a.Collection,
			})
			agg.Completed += r.Completed
			agg.Failed += r.Failed
			agg.Attempts += r.Attempts
			agg.Retries += r.Retries
			if errors.Is(err, collector.ErrInterrupted) {
				// Stop planning; remaining scenarios stay pending so a later
				// adaptive run (adaptive mode is not journaled) can pick the
				// sweep back up under the same budget logic.
				agg.Interrupted = true
				agg.NodeSecondsBySKU = svc.NodeSecondsBySKU()
				if cost, cerr := spent(); cerr == nil {
					agg.CollectionCostUSD = cost
				}
				agg.VirtualSeconds = (svc.Clock.Now() - start).Seconds()
				agg.ElapsedVirtualSeconds = agg.VirtualSeconds
				return agg, collector.ErrInterrupted
			}
			if err != nil {
				return agg, err
			}
		}

		// Remaining pending scenarios were priced out by the budget.
		for _, t := range list.Pending() {
			t.Status = scenario.StatusSkipped
			t.Error = fmt.Sprintf("adaptive collection budget $%.2f exhausted", budgetUSD)
			agg.Skipped++
			if opts.Progress != nil {
				opts.Progress(t)
			}
		}

		agg.NodeSecondsBySKU = svc.NodeSecondsBySKU()
		cost, err := spent()
		if err != nil {
			return agg, err
		}
		agg.CollectionCostUSD = cost
		agg.VirtualSeconds = (svc.Clock.Now() - start).Seconds()
		// Adaptive steps run one scenario at a time on the shared clock, so the
		// elapsed wall-clock is the sequential total (MaxParallelPools does not
		// apply to this mode).
		agg.ElapsedVirtualSeconds = agg.VirtualSeconds
		return agg, nil
	})
}
