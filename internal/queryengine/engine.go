// Package queryengine is the read-optimized serving layer between the
// dataset and the front ends (CLI, GUI, public API). Every advice table,
// plot set, and rendered SVG is memoized under a key combining the
// canonical filter and the requested ordering, in a memo that lives for
// exactly one store generation: a repeated query is a cache hit instead of
// a dataset walk, and the first query at a newer generation drops the whole
// memo — any append invalidates by changing the generation, with no
// explicit flushes and no stale generation kept behind. Single-flight
// collapses a thundering herd on one cold key into a single computation.
//
// The engine is safe for concurrent use and never blocks writers: it reads
// through immutable dataset.Snapshots (see internal/dataset/snapshot.go).
// Every query takes the snapshot it answers at as its first argument; the
// caller pins one with Snapshot and passes it to each query of a request,
// so nothing the engine returns can mix generations. A plot set is built
// from one Select at its pinned snapshot.
package queryengine

import (
	"fmt"
	"sync"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
)

// maxGenEntries bounds the memo of one generation. Past the cap a result
// is computed and returned but not stored, so a stream of distinct filters
// cannot grow the memo without bound.
const maxGenEntries = 512

// Stats counts cache traffic. Joins on an in-flight computation count as
// hits (the work was shared, not repeated). Evictions counts the entries
// dropped when a newer generation replaced the memo.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Engine memoizes advice and plot queries over a store's snapshots.
type Engine struct {
	src *dataset.Store

	mu    sync.Mutex
	memo  *genMemo // guarded-by: mu
	stats Stats    // guarded-by: mu
}

// genMemo holds the results and in-flight computations of one generation.
// Its maps are guarded by the owning Engine's mu. The engine swaps in a
// fresh memo when a newer generation arrives; the old one is garbage once
// its in-flight computations finish.
type genMemo struct {
	gen      uint64
	entries  map[string]any
	inflight map[string]*call
}

func newGenMemo(gen uint64) *genMemo {
	return &genMemo{gen: gen, entries: make(map[string]any), inflight: make(map[string]*call)}
}

type call struct {
	done chan struct{}
	val  any
}

// New builds an engine over src.
func New(src *dataset.Store) *Engine {
	return &Engine{src: src, memo: newGenMemo(0)}
}

// Snapshot exposes the engine's current read view. It is the only method
// that reads the live dataset; every query takes the snapshot it answers
// at.
func (e *Engine) Snapshot() *dataset.Snapshot { return e.src.Snapshot() }

// Stats returns a copy of the cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Len returns the number of cached entries, all of the newest generation
// the engine has served.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.memo.entries)
}

// testHookCompute, when set, runs inside every cache-miss computation;
// tests use it to hold a computation open and observe single-flight.
var testHookCompute func()

// get returns the value for key at snapshot generation gen, computing it
// at most once across concurrent callers. A newer generation replaces the
// memo; a query pinned to an older one is computed and not stored, since
// no later query at the newest generation could use it.
func (e *Engine) get(gen uint64, key string, compute func() any) any {
	e.mu.Lock()
	m := e.memo
	switch {
	case gen > m.gen:
		e.stats.Evictions += uint64(len(m.entries))
		m = newGenMemo(gen)
		e.memo = m
	case gen < m.gen:
		e.stats.Misses++
		e.mu.Unlock()
		return compute()
	}
	if v, ok := m.entries[key]; ok {
		e.stats.Hits++
		e.mu.Unlock()
		return v
	}
	if c, ok := m.inflight[key]; ok {
		e.stats.Hits++
		e.mu.Unlock()
		<-c.done
		return c.val
	}
	c := &call{done: make(chan struct{})}
	m.inflight[key] = c
	e.stats.Misses++
	e.mu.Unlock()

	if testHookCompute != nil {
		testHookCompute()
	}
	c.val = compute()

	e.mu.Lock()
	delete(m.inflight, key)
	if e.memo == m && len(m.entries) < maxGenEntries {
		m.entries[key] = c.val
	}
	e.mu.Unlock()
	close(c.done)
	return c.val
}

// key renders a cache key within one generation's memo: query kind,
// canonical filter, and any extra discriminator (sort order, plot name).
func key(kind string, c *dataset.CanonicalFilter, extra string) string {
	k := kind + "|" + c.Key()
	if extra != "" {
		k += "|" + extra
	}
	return k
}

func orderKey(order pareto.SortOrder) string {
	if order == pareto.ByCost {
		return "cost"
	}
	return "time"
}

// Cached memoizes an arbitrary derivation of the snapshot sn in the
// engine's generation memo with single-flight, keyed like every built-in
// kind: (kind, canonical filter, extra) within sn's generation. Serving
// layers use it to cache renderings the engine does not know about — e.g.
// the encoded predicted-advice body — with the same generation-based
// invalidation as advice and SVG. compute receives sn itself, the exact snapshot the key's
// generation names, so a cached value can never mix generations. External
// kinds are namespaced with "x:" and can never collide with the engine's
// own.
func (e *Engine) Cached(sn *dataset.Snapshot, kind string, f dataset.Filter, extra string, compute func(sn *dataset.Snapshot) any) any {
	c := f.Canonical()
	return e.get(sn.Generation(), key("x:"+kind, &c, extra), func() any { return compute(sn) })
}

// front memoizes the Pareto front at sn; the shared cached slice must not
// be modified. The snapshot computes it from the columns for every filter
// and materializes only the surviving rows (a hot filter answers from the
// snapshot's own memo of the same front), so on a mapped snapshot only the
// chunks holding survivors are decoded.
func (e *Engine) front(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder) []dataset.Point {
	c := f.Canonical()
	v := e.get(sn.Generation(), key("advice", &c, orderKey(order)), func() any {
		return sn.Advice(&c, order == pareto.ByCost)
	})
	return v.([]dataset.Point)
}

// Advice returns the Pareto front over the filtered dataset at sn in the
// given order, memoized per (filter, order, generation). The returned slice
// is a fresh copy; callers may modify it.
func (e *Engine) Advice(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder) []dataset.Point {
	rows := e.front(sn, f, order)
	out := make([]dataset.Point, len(rows))
	copy(out, rows)
	return out
}

// AdviceTable returns the advice at sn rendered exactly as the paper's
// Listings 3-4, memoized separately from Advice so repeated table requests
// skip even the formatting. Its compute layers on the memoized front, so a
// cold table after a cold Advice (the GUI does both per request) formats
// the cached rows instead of re-running the Pareto computation.
func (e *Engine) AdviceTable(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder) string {
	c := f.Canonical()
	v := e.get(sn.Generation(), key("advicetable", &c, orderKey(order)), func() any {
		return pareto.FormatAdviceTable(e.front(sn, f, order))
	})
	return v.(string)
}

// PlotSet returns all five plots for the filter, built by plot.BuildSet
// from one Select at sn, so the set costs one selection and is internally
// consistent. It is memoized per (filter, generation): every consumer of
// one (filter, generation) — PlotSet calls and all five SVG renders —
// shares a single set computation. The set is returned by value; its
// series slices are shared and read-only.
func (e *Engine) PlotSet(sn *dataset.Snapshot, f dataset.Filter) plot.Set {
	c := f.Canonical()
	v := e.get(sn.Generation(), key("plotset", &c, ""), func() any {
		return plot.BuildSet(sn.Select(f))
	})
	return v.(plot.Set)
}

// SVG returns the named plot of the set at sn rendered as SVG bytes,
// memoized per (name, filter, generation). The returned bytes are shared
// with the cache and must not be modified. Unknown names error.
func (e *Engine) SVG(sn *dataset.Snapshot, name string, f dataset.Filter) ([]byte, error) {
	c := f.Canonical()
	if _, ok := (plot.Set{}).ByName(name); !ok {
		return nil, fmt.Errorf("queryengine: unknown plot %q", name)
	}
	v := e.get(sn.Generation(), key("svg", &c, name), func() any {
		p, _ := e.PlotSet(sn, f).ByName(name)
		return plot.RenderSVG(p)
	})
	return v.([]byte), nil
}

// predictedFront memoizes the merged measured+predicted front at sn; the
// shared cached slice must not be modified. The key adds the predictor
// configuration: distinct grids, gates, or regions cache independently,
// and any append to the store invalidates by generation like every other
// kind.
func (e *Engine) predictedFront(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) []predictor.Row {
	c := f.Canonical()
	v := e.get(sn.Generation(), key("predadvice", &c, orderKey(order)+"|"+cfg.Key()), func() any {
		return predictor.Advice(sn.Select(f), cfg, order)
	})
	return v.([]predictor.Row)
}

// PredictedAdvice returns the merged measured+predicted Pareto front over
// the filtered dataset at sn, memoized per (filter, order, config,
// generation). The returned slice is a fresh copy; callers may modify it.
func (e *Engine) PredictedAdvice(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) []predictor.Row {
	rows := e.predictedFront(sn, f, order, cfg)
	out := make([]predictor.Row, len(rows))
	copy(out, rows)
	return out
}

// PredictedAdviceTable renders the merged advice at sn with its Source
// markings, memoized separately so repeated table requests skip the
// formatting; its compute layers on the memoized rows.
func (e *Engine) PredictedAdviceTable(sn *dataset.Snapshot, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) string {
	c := f.Canonical()
	v := e.get(sn.Generation(), key("predtable", &c, orderKey(order)+"|"+cfg.Key()), func() any {
		return predictor.FormatAdviceTable(e.predictedFront(sn, f, order, cfg))
	})
	return v.(string)
}

// Backtest runs the predictor's leave-one-out backtest over the filtered
// dataset at sn, memoized per (filter, config, generation).
func (e *Engine) Backtest(sn *dataset.Snapshot, f dataset.Filter, cfg predictor.Config) predictor.BacktestReport {
	c := f.Canonical()
	v := e.get(sn.Generation(), key("backtest", &c, cfg.Key()), func() any {
		return predictor.Backtest(sn.Select(f), cfg)
	})
	return v.(predictor.BacktestReport)
}

// PredictedPlotSet returns the plot set at sn with predicted overlays on
// the exectime and cost plots: the measured set (shared with the plain
// PlotSet kind) plus the predictor's fitted-curve, interval-band, and
// predicted-cost series, memoized per (filter, config, generation). The
// set is returned by value; its series slices are shared and read-only.
func (e *Engine) PredictedPlotSet(sn *dataset.Snapshot, f dataset.Filter, cfg predictor.Config) plot.Set {
	c := f.Canonical()
	v := e.get(sn.Generation(), key("predplots", &c, cfg.Key()), func() any {
		return predictor.Overlay(e.PlotSet(sn, f), sn.Select(f), cfg)
	})
	return v.(plot.Set)
}

// PredictedSVG returns the named overlaid plot at sn rendered as SVG
// bytes, memoized per (name, filter, config, generation). The returned
// bytes are shared with the cache and must not be modified. Unknown names
// error.
func (e *Engine) PredictedSVG(sn *dataset.Snapshot, name string, f dataset.Filter, cfg predictor.Config) ([]byte, error) {
	c := f.Canonical()
	if _, ok := (plot.Set{}).ByName(name); !ok {
		return nil, fmt.Errorf("queryengine: unknown plot %q", name)
	}
	v := e.get(sn.Generation(), key("predsvg", &c, name+"|"+cfg.Key()), func() any {
		p, _ := e.PredictedPlotSet(sn, f, cfg).ByName(name)
		return plot.RenderSVG(p)
	})
	return v.([]byte), nil
}
