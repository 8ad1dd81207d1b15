package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Req; Parent is the enclosing span's ID, or -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Request ids tag the spans of one operation. Stream requests count from
// 0; pipelines, set-up pipelines and probes get ranges of their own.
const (
	pipelineReqBase = int64(1) << 32
	setupReqBase    = int64(1) << 33
	probeReqBase    = int64(1) << 34
)

// tracer records spans in memory; they are summarized and written out when
// the run ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: clock()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	start := clock().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start})
	t.mu.Unlock()
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := clock().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// byReq maps each request id to the duration, in microseconds, of its span
// called name (the last one, if several).
func (t *tracer) byReq(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out[s.Req] = float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// layerSummary is one span name's distribution over a run, in
// microseconds. Self time is a span's duration minus the time its child
// spans cover.
type layerSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalQ1   float64 `json:"total_q1_us"`
	TotalP50  float64 `json:"total_p50_us"`
	TotalQ3   float64 `json:"total_q3_us"`
	SelfP50   float64 `json:"self_p50_us"`
	SelfSumMS float64 `json:"self_sum_ms"`
}

// summarize groups the recorded spans by name. Children of one span run one
// after another, so their durations add up without overlap.
func (t *tracer) summarize() map[string]*layerSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	totals := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		self := d - child[i]
		if self < 0 {
			self = 0
		}
		totals[s.Name] = append(totals[s.Name], float64(d)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self)/1e3)
	}
	out := make(map[string]*layerSummary, len(totals))
	for name, tot := range totals {
		sort.Float64s(tot)
		self := selfs[name]
		sort.Float64s(self)
		q1, q2, q3 := quartiles(tot)
		sum := 0.0
		for _, v := range self {
			sum += v
		}
		out[name] = &layerSummary{
			Name: name, Count: len(tot),
			TotalQ1: q1, TotalP50: q2, TotalQ3: q3,
			SelfP50: median(self), SelfSumMS: sum / 1e3,
		}
	}
	return out
}

// sampleSpans returns up to n recorded spans, for the trace file.
func (t *tracer) sampleSpans(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < n {
		n = len(t.spans)
	}
	return append([]span(nil), t.spans[:n]...)
}
