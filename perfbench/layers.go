package main

import (
	"fmt"
	"sort"

	"hpcadvisor/internal/queryengine"
)

// spanMetrics maps per-layer metrics to the span whose median duration
// they report. Stage spans come from a pipeline (time-to-advice's loop, or
// the serving fixture's set-up); request-path spans from the replay of
// sampled requests and the handler wrapper.
var spanMetrics = []struct {
	metric, span, unit string
}{
	{"config.parse_ms", "config.parse", "ms"},
	{"deploy.create_ms", "deploy.create", "ms"},
	{"collector.collect_ms", "collector.collect", "ms"},
	{"storage.close_ms", "storage.close", "ms"},
	{"storage.compact_ms", "storage.compact", "ms"},
	{"storage.open_ms", "storage.open", "ms"},
	{"api.first_advice_ms", "api.first_advice", "ms"},
	{"service.parse_us", "service.parse", "us"},
	{"dataset.select_us", "dataset.select", "us"},
	{"pareto.advice_us", "pareto.advice", "us"},
	{"service.encode_us", "service.encode", "us"},
	{"dataset.hot_front_us", "dataset.hot_front", "us"},
	{"api.handler_us", "api.handler", "us"},
	{"dataset.append_us", "dataset.append", "us"},
	{"dataset.snapshot_build_ms", "dataset.snapshot_build", "ms"},
}

// perLayerMetrics lists every metric a traced run reports, in
// BENCHMARK.json order.
var perLayerMetrics = []string{
	"config.parse_ms", "deploy.create_ms", "collector.collect_ms", "collector.journal_records",
	"collector.fsync_share", "storage.close_ms", "storage.compact_ms", "storage.bytes_per_point",
	"storage.open_ms", "api.first_advice_ms",
	"service.parse_us", "dataset.select_us", "dataset.rows_per_result", "pareto.advice_us", "service.encode_us",
	"api.handler_us", "net.overhead_us", "api.body_cache_hit_ratio", "api.not_modified_ratio",
	"queryengine.hit_ratio", "dataset.hot_front_ratio",
	"dataset.append_us", "dataset.snapshot_build_ms", "dataset.hot_front_us", "queryengine.misses_per_roll",
	"plot.svg_ms",
	"runtime.alloc_bytes_per_op", "runtime.gc_cycles", "trace.overhead_ms", "trace.throughput_ratio",
}

// spanLayers reports the span-derived metrics and the network overhead:
// per request, the client's round trip minus the handler's time.
func spanLayers(b *bench, tr *tracer) {
	for _, m := range spanMetrics {
		s, ok := b.layers[m.span]
		if !ok {
			continue
		}
		v := s.TotalP50
		if m.unit == "ms" {
			v /= 1e3
		}
		b.set(m.metric, v, m.unit)
	}
	handler := tr.byReq("api.handler")
	var over []float64
	for req, rtt := range tr.byReq("request") {
		if h, ok := handler[req]; ok {
			over = append(over, rtt-h)
		}
	}
	sort.Float64s(over)
	b.set("net.overhead_us", median(over), "us")
}

// pipelineLayers reports the pipeline counts: journal records per sweep,
// compacted bytes per point, and the share of collection time the durable
// path (journal fsync per record, WAL write-through) adds over an
// in-memory collection of the same sweep.
func pipelineLayers(b *bench, records uint64, bytesPerPoint float64, memCollectMS []float64) {
	b.set("collector.journal_records", float64(records), "count")
	b.set("storage.bytes_per_point", bytesPerPoint, "B")
	share := 0.0
	if s, ok := b.layers["collector.collect"]; ok && s.TotalP50 > 0 {
		sorted := append([]float64(nil), memCollectMS...)
		sort.Float64s(sorted)
		share = 1 - median(sorted)*1e3/s.TotalP50
	}
	b.set("collector.fsync_share", share, "ratio")
}

// cacheShares reports which layer answered the traced requests: the API's
// body cache, a 304 revalidation, the engine LRU, or a precomputed hot
// front (the latter over replayed requests). They are also recorded in env
// so a change that helps only repeated requests can show its share.
func cacheShares(b *bench, requests int, api apiCounters, eng queryengine.Stats, replays, hotReplays, rows int) {
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	r := uint64(requests)
	b.set("api.body_cache_hit_ratio", ratio(api.bodyHits, r), "ratio")
	b.set("api.not_modified_ratio", ratio(api.notModified, r), "ratio")
	b.set("queryengine.hit_ratio", ratio(eng.Hits, eng.Hits+eng.Misses), "ratio")
	b.set("dataset.hot_front_ratio", ratio(uint64(hotReplays), uint64(replays)), "ratio")
	b.set("dataset.rows_per_result", ratio(uint64(rows), uint64(replays)), "rows")
	b.env["answered_by"] = map[string]any{
		"requests":         requests,
		"body_cache":       ratio(api.bodyHits, r),
		"not_modified_304": ratio(api.notModified, r),
		"engine_lru":       ratio(eng.Hits, r),
		"hot_front":        ratio(uint64(hotReplays), uint64(replays)),
		"replayed":         replays,
	}
}

// rollLayers reports the append-side metrics of a liveLoop pass: plot
// render time at a new generation and engine misses per generation roll.
func rollLayers(b *bench, tr *tracer, st *liveStats, misses uint64) {
	handler := tr.byReq("api.handler")
	var svg []float64
	for _, req := range st.renders {
		if h, ok := handler[req]; ok {
			svg = append(svg, h/1e3)
		}
	}
	sort.Float64s(svg)
	b.set("plot.svg_ms", median(svg), "ms")
	perRoll := 0.0
	if st.rolls > 0 {
		perRoll = float64(misses) / float64(st.rolls)
	}
	b.set("queryengine.misses_per_roll", perRoll, "count")
}

// checkLayers fails a traced run that left a per-layer metric unreported.
func checkLayers(b *bench) error {
	for _, name := range perLayerMetrics {
		if _, ok := b.metrics[name]; !ok {
			return fmt.Errorf("traced %s run did not report %s", b.workload, name)
		}
	}
	return nil
}

func engineDelta(after, before queryengine.Stats) queryengine.Stats {
	return queryengine.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Evictions: after.Evictions - before.Evictions}
}
