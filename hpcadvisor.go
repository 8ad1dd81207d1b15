// Package hpcadvisor reproduces the system of "HPCAdvisor: A Tool for
// Assisting Users in Selecting HPC Resources in the Cloud" (Netto, SC 2024):
// a tool that helps users choose VM type, number of nodes, and processes per
// node for an HPC workload, taking the application's input into account.
//
// Given a configuration (cloud subscription, VM types, node counts,
// application and its inputs — the paper's Listing 1), the advisor:
//
//  1. provisions a cloud environment (resource group, network, storage,
//     batch service — Section III-B),
//  2. executes every scenario of the sweep, collecting execution time, cost
//     and application metrics (Section III-C, Algorithm 1),
//  3. generates the execution-time, cost, speedup, and efficiency plots
//     (Section III-D, Figures 2-5), and
//  4. emits advice as the Pareto front over (execution time, cost)
//     (Section III-E, Figure 6, Listings 3-4).
//
// The cloud, the batch orchestrator, and the HPC applications are fully
// simulated substrates (no credentials, no network): an ARM-like control
// plane with quotas and provisioning latencies, a Batch-like gang scheduler
// on a virtual clock, and calibrated analytical performance models for
// LAMMPS, OpenFOAM, WRF, GROMACS, NAMD, and a matmul demo. Costs use the
// real published on-demand prices of the paper's SKUs, so advice tables
// reproduce the paper's numbers in shape and magnitude.
//
// # Quick start
//
//	adv := hpcadvisor.New("mysubscription")
//	cfg, _ := hpcadvisor.ParseConfig([]byte(`
//	subscription: mysubscription
//	skus:
//	  - Standard_HB120rs_v3
//	rgprefix: quickstart
//	nnodes: [1, 2, 4]
//	appname: lammps
//	region: southcentralus
//	ppr: 100
//	appinputs:
//	  BOXFACTOR: "20"
//	`))
//	dep, _ := adv.DeployCreate(cfg)
//	report, _ := adv.Collect(dep.Name, cfg, hpcadvisor.CollectOptions{})
//	fmt.Print(adv.AdviceTable(hpcadvisor.Filter{}, hpcadvisor.ByTime))
//
// The smart-sampling strategies of Section III-F (aggressive discarding,
// regression-based performance factors, bottleneck hints) are available via
// CollectOptions.Sampler ("discard", "perffactor", "bottleneck",
// "combined").
//
// Multi-SKU sweeps can collect VM types concurrently by setting
// CollectOptions.MaxParallelPools > 1 (the CLI's -parallel-pools): the
// scenario list is partitioned per VM type into independent pool lanes and
// the resulting dataset is byte-identical to the sequential run — only the
// time to advice shrinks. See docs/ARCHITECTURE.md.
//
// Advice is not limited to executed scenarios: PredictedAdvice fits scaling
// models per (application, input, SKU) group and merges model-predicted
// points at untested node counts into the front, every predicted row
// visibly marked — the paper's Section III-F advice "with minimal or no
// executions in the cloud". Backtest reports how far those models can be
// trusted.
//
// Datasets persist in a segment store: Advisor.OpenStore attaches a
// WAL-backed binary store with CRC-checksummed frames, compaction, and
// crash recovery, so every collected point is written through the moment
// it lands. JSON Lines is the import and export format of `dataset
// convert`; see the "Storage engine" section of docs/ARCHITECTURE.md.
package hpcadvisor

import (
	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/deploy"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
)

// Advisor is the top-level entry point; see package core for the method
// set: DeployCreate, DeployList, DeployShutdown, Collect, Plots,
// WritePlotsSVG, Advice, AdviceTable.
type Advisor = core.Advisor

// Config is the parsed main configuration file (paper Listing 1).
type Config = config.Config

// Deployment records a provisioned environment.
type Deployment = deploy.Deployment

// DataPoint is one executed scenario's record in the dataset.
type DataPoint = dataset.Point

// Filter selects datapoints for plots and advice.
type Filter = dataset.Filter

// CollectOptions tune a data-collection run, including the smart-sampling
// strategy.
type CollectOptions = core.CollectOptions

// CollectReport summarizes a collection run, including total collection
// cost.
type CollectReport = collector.Report

// PlotSet bundles the tool's five plots (Figures 2-6).
type PlotSet = core.PlotSet

// SortOrder selects advice ordering.
type SortOrder = pareto.SortOrder

// Advice orderings: by execution time (the paper's default) or by cost.
const (
	ByTime = pareto.ByTime
	ByCost = pareto.ByCost
)

// New creates an advisor bound to a cloud subscription with the default
// SKU catalog, price book, and application registry.
func New(subscriptionID string) *Advisor {
	return core.New(subscriptionID)
}

// ParseConfig parses a Listing 1-style YAML configuration.
func ParseConfig(data []byte) (*Config, error) {
	return config.Parse(data)
}

// LoadConfig reads and parses a configuration file.
func LoadConfig(path string) (*Config, error) {
	return config.Load(path)
}

// FormatAdviceTable renders advice rows exactly as the paper's Listings 3-4.
func FormatAdviceTable(rows []DataPoint) string {
	return pareto.FormatAdviceTable(rows)
}

// ParetoFront computes the non-dominated (time, cost) points among the
// given datapoints.
func ParetoFront(points []DataPoint) []DataPoint {
	return pareto.Front(points)
}

// PredictorConfig tunes the prediction of untested scenarios: the node
// grid, the evidence and fit-quality gates, and the pricing of synthesized
// points. Build one with Advisor.PredictorConfig.
type PredictorConfig = predictor.Config

// PredictedRow is one merged-advice row: a measured datapoint or a
// model-synthesized one (Predicted true) with its model family, fit
// quality, and prediction interval.
type PredictedRow = predictor.Row

// BacktestReport is the leave-one-out accuracy of the scaling models,
// as MAPE per model family.
type BacktestReport = predictor.BacktestReport

// FormatPredictedAdviceTable renders merged advice rows with their Source
// markings (measured vs predicted/model).
func FormatPredictedAdviceTable(rows []PredictedRow) string {
	return predictor.FormatAdviceTable(rows)
}

// Plot is a renderable chart from the tool's plot set.
type Plot = plot.Plot

// RenderPlotASCII renders a plot as a terminal chart.
func RenderPlotASCII(p Plot, width, height int) string {
	return plot.RenderASCII(p, width, height)
}

// RenderPlotSVG renders a plot as a standalone SVG document.
func RenderPlotSVG(p Plot) []byte {
	return plot.RenderSVG(p)
}
