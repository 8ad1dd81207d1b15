package service

import (
	"net/url"
	"strconv"
	"strings"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
)

// This file is the single parse surface for every transport. The GUI
// handlers pass r.URL.Query() straight through; the JSON API does the same;
// the CLI folds its flags into a url.Values and calls the identical
// functions. There is deliberately no second parser anywhere in the tree —
// a filter that means one thing on /advice means exactly the same thing on
// /api/v1/advice and `hpcadvisor advice`.
//
// Query parameters:
//
//	app        application name filter (case-insensitive)
//	sku        SKU full name or alias filter (case-insensitive)
//	input      input description filter (exact)
//	minnodes   minimum node count (integer >= 1)
//	maxnodes   maximum node count (integer >= 1)
//	sort       "time" (default) or "cost"
//	region     pricing region for predictions (default southcentralus)
//	grid       prediction node counts, comma-separated integers >= 1
//	pred       "1"/"true" overlays predictions on plots

// ParseFilter builds the canonical dataset filter from query parameters.
// Malformed numeric bounds and inverted ranges are KindBadRequest errors.
func ParseFilter(q url.Values) (dataset.Filter, error) {
	f := dataset.Filter{
		AppName:   q.Get("app"),
		SKU:       q.Get("sku"),
		InputDesc: q.Get("input"),
	}
	var err error
	if f.MinNodes, err = parseNodeBound(q.Get("minnodes"), "minnodes"); err != nil {
		return dataset.Filter{}, err
	}
	if f.MaxNodes, err = parseNodeBound(q.Get("maxnodes"), "maxnodes"); err != nil {
		return dataset.Filter{}, err
	}
	if f.MinNodes > 0 && f.MaxNodes > 0 && f.MinNodes > f.MaxNodes {
		return dataset.Filter{}, BadRequestf("minnodes %d exceeds maxnodes %d", f.MinNodes, f.MaxNodes)
	}
	return f, nil
}

func parseNodeBound(s, name string) (int, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, BadRequestf("invalid %s %q: want an integer >= 1", name, s)
	}
	return n, nil
}

// ParseOrder parses the sort parameter; empty defaults to time order.
func ParseOrder(s string) (pareto.SortOrder, error) {
	switch s {
	case "", "time":
		return pareto.ByTime, nil
	case "cost":
		return pareto.ByCost, nil
	}
	return pareto.ByTime, BadRequestf("unknown sort %q (want time or cost)", s)
}

// maxGridNodes bounds how many node counts one prediction grid may name.
// Every grid point is predicted, rendered and memoized per generation, so
// an unbounded grid lets one request cost unbounded time and memory; the
// paper's sweeps and DefaultGrid stay far below the bound.
const maxGridNodes = 64

// ParseGrid parses the prediction grid: at most maxGridNodes
// comma-separated node counts >= 1. Empty means "derive from the measured
// data".
func ParseGrid(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	if n := strings.Count(spec, ",") + 1; n > maxGridNodes {
		return nil, BadRequestf("grid names %d node counts, at most %d allowed", n, maxGridNodes)
	}
	var out []int
	for _, field := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 1 {
			return nil, BadRequestf("invalid grid %q: want comma-separated node counts >= 1", spec)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseAdviceRequest parses filter and ordering for an advice query.
func ParseAdviceRequest(q url.Values) (AdviceRequest, error) {
	f, err := ParseFilter(q)
	if err != nil {
		return AdviceRequest{}, err
	}
	order, err := ParseOrder(q.Get("sort"))
	if err != nil {
		return AdviceRequest{}, err
	}
	return AdviceRequest{Filter: f, Order: order}, nil
}

// ParsePredictRequest parses filter, ordering, and prediction options for a
// predicted-advice or backtest query. An empty region falls back to
// DefaultRegion when the request is served.
func ParsePredictRequest(q url.Values) (PredictRequest, error) {
	base, err := ParseAdviceRequest(q)
	if err != nil {
		return PredictRequest{}, err
	}
	grid, err := ParseGrid(q.Get("grid"))
	if err != nil {
		return PredictRequest{}, err
	}
	return PredictRequest{
		Filter: base.Filter,
		Order:  base.Order,
		Region: q.Get("region"),
		Grid:   grid,
	}, nil
}

// ParsePlotRequest parses a plot request: the plot name plus the shared
// filter and prediction parameters. The name is validated when the request
// is served (unknown names are KindNotFound, not KindBadRequest, because
// they address a missing resource).
func ParsePlotRequest(name string, q url.Values) (PlotRequest, error) {
	f, err := ParseFilter(q)
	if err != nil {
		return PlotRequest{}, err
	}
	pred, err := parsePredFlag(q.Get("pred"))
	if err != nil {
		return PlotRequest{}, err
	}
	grid, err := ParseGrid(q.Get("grid"))
	if err != nil {
		return PlotRequest{}, err
	}
	return PlotRequest{
		Name:      name,
		Filter:    f,
		Predicted: pred,
		Region:    q.Get("region"),
		Grid:      grid,
	}, nil
}

func parsePredFlag(s string) (bool, error) {
	if s == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, BadRequestf("invalid pred %q: want a boolean", s)
	}
	return v, nil
}
