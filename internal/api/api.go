// Package api is the versioned JSON HTTP surface over the service layer —
// advice-as-a-service. Every response that derives from the dataset carries
// a generation-based ETag: the query engine invalidates its caches by store
// generation, and the API folds the same generation into `ETag`, so a fleet
// of clients revalidating with `If-None-Match` gets `304 Not Modified` for
// free until the next append — HTTP-level caching that tracks the engine's
// own invalidation exactly.
//
// Endpoints (all GET):
//
//	/api/v1/advice             Pareto front as JSON rows (?app ?sku ?input
//	                           ?minnodes ?maxnodes ?sort)
//	/api/v1/predicted-advice   merged measured+predicted front plus backtest
//	                           (?region ?grid and the filter params)
//	/api/v1/plots/{name}.svg   one rendered plot (?pred=1 for the overlay)
//	/api/v1/scenarios          per-deployment scenario task lists
//	/api/v1/dataset            dataset size, dimensions, storage state
//	/healthz                   liveness (no ETag, never cached)
//	/metrics                   Prometheus-format counters
//
// Errors are JSON bodies {"error":{"status":...,"message":...}} with the
// status chosen by the service layer's typed error kinds.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hpcadvisor/internal/service"
)

// Server serves the versioned JSON API over one service.
type Server struct {
	svc *service.Service

	// Request counters for /metrics.
	requests    atomic.Uint64
	notModified atomic.Uint64

	// Encode/write failure counters for /metrics: a response body that
	// failed to marshal (encodeErrors) or could not be fully written to the
	// client (writeErrors) is otherwise invisible — by the time a write
	// fails the status line is already out, so the counter is the only
	// place a truncated response surfaces.
	encodeErrors atomic.Uint64
	writeErrors  atomic.Uint64

	// bodyHits counts advice responses served straight from the
	// per-generation body cache, skipping even the query parse.
	bodyHits atomic.Uint64

	// etagCache memoizes the rendered ETag of the current generation, so a
	// fleet of revalidating clients costs a pointer load per request
	// instead of an integer format.
	etagCache atomic.Pointer[etagEntry]

	// adviceBodies caches fully rendered /api/v1/advice bodies for the
	// current generation, keyed by raw query string, so the hot serving
	// path is a map probe plus a write — no URL parsing, no filter
	// canonicalization, no engine probe. A generation roll swaps in a
	// fresh cache; stale entries die with their cache.
	adviceBodies atomic.Pointer[bodyCache]
}

type etagEntry struct {
	gen uint64
	tag string
}

// maxCachedBodies bounds the per-generation body cache. Distinct raw query
// strings beyond the cap are rendered on every request and not stored, so
// an adversarial query stream cannot grow the map without bound.
const maxCachedBodies = 512

// bodyCache memoizes rendered advice bodies for one generation.
type bodyCache struct {
	gen    uint64
	mu     sync.RWMutex
	bodies map[string][]byte // guarded-by: mu
}

func (c *bodyCache) get(rawQuery string) ([]byte, bool) {
	c.mu.RLock()
	body, ok := c.bodies[rawQuery]
	c.mu.RUnlock()
	return body, ok
}

func (c *bodyCache) put(rawQuery string, body []byte) {
	c.mu.Lock()
	if len(c.bodies) < maxCachedBodies {
		c.bodies[rawQuery] = body
	}
	c.mu.Unlock()
}

// cachedBody returns the cached advice body for a raw query at gen, if the
// current cache is for that generation and holds it.
func (s *Server) cachedBody(gen uint64, rawQuery string) ([]byte, bool) {
	if c := s.adviceBodies.Load(); c != nil && c.gen == gen {
		return c.get(rawQuery)
	}
	return nil, false
}

// storeBody records a rendered advice body under the generation its bytes
// were actually rendered at. A cache for a newer generation is never
// displaced — a racing older render just goes uncached.
func (s *Server) storeBody(gen uint64, rawQuery string, body []byte) {
	for {
		c := s.adviceBodies.Load()
		if c != nil && c.gen == gen {
			c.put(rawQuery, body)
			return
		}
		if c != nil && c.gen > gen {
			return
		}
		nc := &bodyCache{gen: gen, bodies: make(map[string][]byte)}
		if s.adviceBodies.CompareAndSwap(c, nc) {
			nc.put(rawQuery, body)
			return
		}
	}
}

// New builds an API server over a service.
func New(svc *service.Service) *Server { return &Server{svc: svc} }

// Mux returns the route table. Methods are part of the patterns, so a POST
// to a read endpoint is 405, not a silent GET.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/advice", s.counted(s.handleAdvice))
	mux.HandleFunc("GET /api/v1/predicted-advice", s.counted(s.handlePredictedAdvice))
	mux.HandleFunc("GET /api/v1/plots/{name}", s.counted(s.handlePlot))
	mux.HandleFunc("GET /api/v1/scenarios", s.counted(s.handleScenarios))
	mux.HandleFunc("GET /api/v1/dataset", s.counted(s.handleDataset))
	mux.HandleFunc("GET /healthz", s.counted(s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.counted(s.handleMetrics))
	return mux
}

func (s *Server) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		h(w, r)
	}
}

// StatusOf maps a service error to its HTTP status. The GUI shares it so
// both transports agree on what a bad filter (400) versus an unknown plot
// (404) versus a render failure (500) is.
func StatusOf(err error) int {
	switch service.KindOf(err) {
	case service.KindBadRequest:
		return http.StatusBadRequest
	case service.KindNotFound:
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error struct {
		Status  int    `json:"status"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	var body errorBody
	body.Error.Status = StatusOf(err)
	body.Error.Message = err.Error()
	data, mErr := json.Marshal(body)
	if mErr != nil {
		// Unreachable for a fixed struct of ints and strings, but counted
		// rather than silently dropped if it ever happens.
		s.encodeErrors.Add(1)
		w.WriteHeader(body.Error.Status)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(body.Error.Status)
	s.writeBody(w, append(data, '\n'))
}

// writeJSON marshals v and writes it. Marshaling up front (instead of
// streaming through an Encoder) means an encode failure happens before any
// byte reaches the client, so it can still be answered with a well-formed
// 500 — and counted, where the old Encoder path discarded it. The trailing
// newline preserves the Encoder's framing byte for byte.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.encodeErrors.Add(1)
		s.writeError(w, service.Internalf(err, "encoding response"))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	s.writeBody(w, append(data, '\n'))
}

// writeBody writes a fully rendered body, counting short or failed writes:
// the status line is already out, so the counter is the only observable
// trace of a truncated response.
func (s *Server) writeBody(w http.ResponseWriter, body []byte) {
	if n, err := w.Write(body); err != nil || n < len(body) {
		s.writeErrors.Add(1)
	}
}

// etag renders the generation ETag. It is a strong validator: two responses
// for one URL at one generation are byte-identical (both render from
// snapshots of that one generation).
func etag(gen uint64) string {
	return `"g` + strconv.FormatUint(gen, 10) + `"`
}

// etagMatch implements If-None-Match for our single-ETag responses: a
// comma-separated candidate list, `*` matching anything, and weak-validator
// prefixes compared by opaque value.
func etagMatch(header, tag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == tag {
			return true
		}
	}
	return false
}

// etagFor returns the (memoized) ETag of gen.
func (s *Server) etagFor(gen uint64) string {
	if c := s.etagCache.Load(); c != nil && c.gen == gen {
		return c.tag
	}
	tag := etag(gen)
	s.etagCache.Store(&etagEntry{gen: gen, tag: tag})
	return tag
}

// notModified reports whether the client's If-None-Match already names the
// current generation — in which case a 304 with an empty body (and the
// caching headers) has been written and the caller must not render
// anything. The check runs before any parsing or computation, so a
// revalidation hit costs a header compare, not a query. On a miss nothing
// is written: the handler renders its body and stamps the headers with
// stampCaching using the generation the body actually came from, so the
// ETag can never disagree with the bytes under it even while a concurrent
// collection appends between the check and the render.
func (s *Server) serveNotModified(w http.ResponseWriter, r *http.Request) bool {
	return s.serveNotModifiedAt(w, r, s.svc.Generation())
}

// serveNotModifiedAt is serveNotModified for a handler that already
// fetched the generation (to share it with a body-cache probe) and must
// not fetch it twice.
func (s *Server) serveNotModifiedAt(w http.ResponseWriter, r *http.Request, gen uint64) bool {
	tag := s.etagFor(gen)
	if etagMatch(r.Header.Get("If-None-Match"), tag) {
		h := w.Header()
		h.Set("ETag", tag)
		h.Set("Cache-Control", "no-cache")
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// stampCaching sets the caching headers for a body rendered at gen.
func (s *Server) stampCaching(w http.ResponseWriter, gen uint64) {
	h := w.Header()
	h.Set("ETag", s.etagFor(gen))
	h.Set("Cache-Control", "no-cache")
}

// handleAdvice serves the service.AdviceResponse envelope: generation,
// canonical sort name, row count, and the rows. The encoded body is
// cached here once per (raw query, generation) — so under steady traffic
// this handler is a header compare and a map probe, with no query parsing
// at all. The generation is fetched
// exactly once and threaded through both the revalidation check and the
// cache probe (snapshot-pinning discipline).
func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	gen := s.svc.Generation()
	if s.serveNotModifiedAt(w, r, gen) {
		return
	}
	if body, ok := s.cachedBody(gen, r.URL.RawQuery); ok {
		s.bodyHits.Add(1)
		s.stampCaching(w, gen)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		s.writeBody(w, body)
		return
	}
	req, err := service.ParseAdviceRequest(r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, bgen, err := s.svc.AdviceJSON(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Cache under bgen — the generation the body was actually rendered at,
	// which may already differ from gen if a collection appended — so the
	// cached bytes can never be served under a mismatched ETag.
	s.storeBody(bgen, r.URL.RawQuery, body)
	s.stampCaching(w, bgen)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	s.writeBody(w, body)
}

// handlePredictedAdvice serves the service.PredictedResponse envelope —
// merged front plus backtest, both from one snapshot, memoized like the
// advice body.
func (s *Server) handlePredictedAdvice(w http.ResponseWriter, r *http.Request) {
	if s.serveNotModified(w, r) {
		return
	}
	req, err := service.ParsePredictRequest(r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, gen, err := s.svc.PredictedAdviceJSON(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.stampCaching(w, gen)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	s.writeBody(w, body)
}

func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request) {
	if s.serveNotModified(w, r) {
		return
	}
	base, ok := strings.CutSuffix(r.PathValue("name"), ".svg")
	if !ok {
		s.writeError(w, service.NotFoundf("plot artifacts are .svg files (try %s.svg)", r.PathValue("name")))
		return
	}
	req, err := service.ParsePlotRequest(base, r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	data, gen, err := s.svc.PlotSVG(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.stampCaching(w, gen)
	w.Header().Set("Content-Type", "image/svg+xml")
	s.writeBody(w, data)
}

type scenariosResponse struct {
	Deployments []service.DeploymentScenarios `json:"deployments"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	deps, err := s.svc.Scenarios()
	if err != nil {
		s.writeError(w, err)
		return
	}
	if deps == nil {
		deps = []service.DeploymentScenarios{}
	}
	s.writeJSON(w, scenariosResponse{Deployments: deps})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	if s.serveNotModified(w, r) {
		return
	}
	info, err := s.svc.Dataset()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.stampCaching(w, info.Generation)
	s.writeJSON(w, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":     "ok",
		"points":     s.svc.Advisor().Store.Len(),
		"generation": s.svc.Generation(),
	}
	if rs, ok := s.svc.Replication(); ok {
		if rs.Fault != "" {
			// Still serving (last-good data), but a load balancer should
			// know this replica stopped tracking the leader.
			body["status"] = "degraded"
		}
		body["replication"] = rs
	}
	s.writeJSON(w, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats := s.svc.EngineStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("hpcadvisor_dataset_points", "Datapoints in the served dataset.", uint64(s.svc.Advisor().Store.Len()))
	gauge("hpcadvisor_dataset_generation", "Dataset store generation (ETag basis).", s.svc.Generation())
	counter("hpcadvisor_cache_hits_total", "Query engine cache hits.", stats.Hits)
	counter("hpcadvisor_cache_misses_total", "Query engine cache misses.", stats.Misses)
	counter("hpcadvisor_cache_evictions_total", "Query engine cache entries dropped when a newer dataset generation replaced the memo.", stats.Evictions)
	counter("hpcadvisor_http_requests_total", "API requests served.", s.requests.Load())
	counter("hpcadvisor_http_not_modified_total", "Revalidations answered 304.", s.notModified.Load())
	counter("hpcadvisor_http_body_cache_hits_total", "Advice responses served from the per-generation body cache.", s.bodyHits.Load())
	counter("hpcadvisor_http_encode_errors_total", "Response bodies whose JSON encoding failed.", s.encodeErrors.Load())
	counter("hpcadvisor_http_write_errors_total", "Response bodies truncated by a failed or short client write.", s.writeErrors.Load())
	if rs, ok := s.svc.Replication(); ok && rs.Role == "follower" {
		gauge("hpcadvisor_replica_lag_points", "Points behind the leader's durable log position.", uint64(rs.Lag))
		gauge("hpcadvisor_replica_applied_points", "Points applied from the leader's log.", uint64(rs.Applied))
	}

	// Collection-resilience counters: labeled series are emitted in sorted
	// label order so the exposition is deterministic.
	col := s.svc.CollectionStats()
	labeled := func(name, help, kind string, series map[string]uint64, label string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		keys := make([]string, 0, len(series))
		for k := range series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s{%s=%q} %d\n", name, label, k, series[k])
		}
	}
	labeled("hpcadvisor_collect_attempts_total", "Collection attempts by failure class (class none is success).", "counter", col.AttemptsByClass, "class")
	labeled("hpcadvisor_collect_retries_total", "Collection retries by the failure class that caused them.", "counter", col.RetriesByClass, "class")
	breaker := make(map[string]uint64, len(col.BreakerState))
	for sku, state := range col.BreakerState {
		// 0 closed, 1 half-open, 2 open.
		switch state {
		case "half-open":
			breaker[sku] = 1
		case "open":
			breaker[sku] = 2
		default:
			breaker[sku] = 0
		}
	}
	labeled("hpcadvisor_collect_breaker_state", "Circuit breaker state per SKU (0 closed, 1 half-open, 2 open).", "gauge", breaker, "sku")
	counter("hpcadvisor_collect_breaker_trips_total", "Circuit breaker open transitions.", col.BreakerTrips)
	counter("hpcadvisor_collect_tasks_resumed_total", "Journaled tasks restored on resume without re-collection.", col.TasksResumed)
	counter("hpcadvisor_collect_tasks_rerun_total", "Journaled tasks re-collected on resume (datapoint was not durable).", col.TasksRerun)
	counter("hpcadvisor_collect_journal_records_total", "Records appended to the sweep journal.", col.JournalRecords)
	s.writeBody(w, []byte(b.String()))
}
