package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/service"
)

const testConfig = `subscription: mysubscription
skus:
  - Standard_HB120rs_v3
rgprefix: apitest
nnodes: [1, 2, 4]
appname: lammps
region: southcentralus
appinputs:
  BOXFACTOR: "10"
`

// collectedAdvisor runs a real (simulated) collection so the API serves the
// same shape of data a deployed instance would.
func collectedAdvisor(t testing.TB) *core.Advisor {
	t.Helper()
	cfg, err := config.Parse([]byte(testConfig))
	if err != nil {
		t.Fatal(err)
	}
	adv := core.New(cfg.Subscription)
	d, err := adv.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Collect(d.Name, cfg, core.CollectOptions{}); err != nil {
		t.Fatal(err)
	}
	return adv
}

func newTestServer(t testing.TB) (*httptest.Server, *core.Advisor) {
	t.Helper()
	adv := collectedAdvisor(t)
	ts := httptest.NewServer(New(service.New(adv)).Mux())
	t.Cleanup(ts.Close)
	return ts, adv
}

func get(t testing.TB, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body)
}

// TestEndpointsTable drives every endpoint through status and content-type
// expectations, including the malformed-filter 400s with JSON error bodies.
func TestEndpointsTable(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name        string
		path        string
		wantStatus  int
		wantType    string
		wantBodySub string
	}{
		{"advice", "/api/v1/advice", 200, "application/json", `"rows"`},
		{"advice filtered", "/api/v1/advice?app=lammps&sort=cost", 200, "application/json", `"rows"`},
		{"advice bad sort", "/api/v1/advice?sort=sideways", 400, "application/json", `"error"`},
		{"advice bad minnodes", "/api/v1/advice?minnodes=banana", 400, "application/json", `"message"`},
		{"advice inverted range", "/api/v1/advice?minnodes=8&maxnodes=2", 400, "application/json", `"error"`},
		{"predicted advice", "/api/v1/predicted-advice", 200, "application/json", `"backtest"`},
		{"predicted bad grid", "/api/v1/predicted-advice?grid=1,zero", 400, "application/json", `"error"`},
		{"plot", "/api/v1/plots/pareto.svg", 200, "image/svg+xml", "<svg"},
		{"plot predicted", "/api/v1/plots/exectime_vs_nodes.svg?pred=1", 200, "image/svg+xml", "<svg"},
		{"plot unknown", "/api/v1/plots/nonsense.svg", 404, "application/json", `"error"`},
		{"plot missing suffix", "/api/v1/plots/pareto", 404, "application/json", ".svg"},
		{"plot bad filter", "/api/v1/plots/pareto.svg?minnodes=x", 400, "application/json", `"error"`},
		{"scenarios", "/api/v1/scenarios", 200, "application/json", `"deployments"`},
		{"dataset", "/api/v1/dataset", 200, "application/json", `"apps"`},
		{"healthz", "/healthz", 200, "application/json", `"ok"`},
		{"metrics", "/metrics", 200, "text/plain", "hpcadvisor_cache_hits_total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts, tc.path, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantType) {
				t.Errorf("content type = %q, want prefix %q", ct, tc.wantType)
			}
			if !strings.Contains(body, tc.wantBodySub) {
				t.Errorf("body missing %q: %.200s", tc.wantBodySub, body)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := ts.Client().Post(ts.URL+"/api/v1/advice", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST advice = %d, want 405", resp.StatusCode)
	}
}

// TestETagRoundTrip is the acceptance flow: a GET hands out the generation
// ETag, revalidating with it is a 304 with an empty body, and an append
// rolls the tag so the next revalidation re-serves.
func TestETagRoundTrip(t *testing.T) {
	ts, adv := newTestServer(t)
	resp, body := get(t, ts, "/api/v1/advice", nil)
	tag := resp.Header.Get("ETag")
	if tag == "" || !strings.Contains(body, `"rows"`) {
		t.Fatalf("first GET: tag=%q", tag)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q", cc)
	}

	resp, body = get(t, ts, "/api/v1/advice", map[string]string{"If-None-Match": tag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}
	if body != "" {
		t.Fatalf("304 body = %q, want empty", body)
	}
	if resp.Header.Get("ETag") != tag {
		t.Errorf("304 ETag = %q, want %q", resp.Header.Get("ETag"), tag)
	}

	// Multi-candidate and weak forms match too.
	resp, _ = get(t, ts, "/api/v1/advice", map[string]string{"If-None-Match": `"stale", W/` + tag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("list revalidation = %d, want 304", resp.StatusCode)
	}

	// An append moves the generation: the old tag no longer validates.
	adv.Store.Add(dataset.Point{ScenarioID: "fresh", AppName: "lammps",
		SKU: "Standard_HB120rs_v3", SKUAlias: "hb120rs_v3", NNodes: 8,
		ExecTimeSec: 10, CostUSD: 0.1})
	resp, body = get(t, ts, "/api/v1/advice", map[string]string{"If-None-Match": tag})
	if resp.StatusCode != http.StatusOK || body == "" {
		t.Fatalf("post-append revalidation = %d, want 200 with body", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == tag {
		t.Error("ETag did not roll with the generation")
	}

	// Plots and dataset revalidate against the same generation tag.
	newTag := resp.Header.Get("ETag")
	for _, path := range []string{"/api/v1/plots/pareto.svg", "/api/v1/dataset", "/api/v1/predicted-advice"} {
		resp, body = get(t, ts, path, map[string]string{"If-None-Match": newTag})
		if resp.StatusCode != http.StatusNotModified || body != "" {
			t.Errorf("%s revalidation = %d (body %d bytes), want empty 304", path, resp.StatusCode, len(body))
		}
	}
}

func TestEtagMatch(t *testing.T) {
	tag := `"g42"`
	for header, want := range map[string]bool{
		"":                   false,
		`"g42"`:              true,
		`W/"g42"`:            true,
		`"g41", "g42"`:       true,
		`"g41" , W/"g42"`:    true,
		"*":                  true,
		`"g41"`:              false,
		`g42`:                false, // unquoted is a different opaque value
		`"g42x", "nonsense"`: false,
	} {
		if got := etagMatch(header, tag); got != want {
			t.Errorf("etagMatch(%q) = %v, want %v", header, got, want)
		}
	}
}

// adviceJSON mirrors the wire shape with concrete row typing for the
// equivalence check.
type adviceJSON struct {
	Generation uint64          `json:"generation"`
	Count      int             `json:"count"`
	Rows       []dataset.Point `json:"rows"`
}

// TestAdviceEquivalence is the acceptance criterion: the JSON rows of
// /api/v1/advice are exactly core.Advisor.Advice — same points, same
// order, field for field through the wire format.
func TestAdviceEquivalence(t *testing.T) {
	ts, adv := newTestServer(t)
	for _, q := range []string{"", "?sort=cost", "?app=lammps", "?sku=hb120rs_v3&minnodes=1&maxnodes=4"} {
		resp, body := get(t, ts, "/api/v1/advice"+q, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("advice%s = %d", q, resp.StatusCode)
		}
		var got adviceJSON
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("advice%s json: %v", q, err)
		}
		vals := struct {
			f     dataset.Filter
			order pareto.SortOrder
		}{}
		switch q {
		case "":
			vals.f, vals.order = dataset.Filter{}, pareto.ByTime
		case "?sort=cost":
			vals.f, vals.order = dataset.Filter{}, pareto.ByCost
		case "?app=lammps":
			vals.f, vals.order = dataset.Filter{AppName: "lammps"}, pareto.ByTime
		case "?sku=hb120rs_v3&minnodes=1&maxnodes=4":
			vals.f, vals.order = dataset.Filter{SKU: "hb120rs_v3", MinNodes: 1, MaxNodes: 4}, pareto.ByTime
		}
		want := adv.Advice(vals.f, vals.order)
		if len(want) == 0 {
			t.Fatalf("advice%s: empty oracle, test is vacuous", q)
		}
		// Compare through the wire format: the served rows must be
		// byte-identical JSON to marshaling core.Advisor.Advice directly.
		// (A structural DeepEqual would trip on nil-vs-empty maps, a
		// distinction JSON cannot carry.)
		gotJSON, err := json.Marshal(got.Rows)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != len(want) || string(gotJSON) != string(wantJSON) {
			t.Fatalf("advice%s rows diverge from core.Advisor.Advice\ngot:  %s\nwant: %s", q, gotJSON, wantJSON)
		}
	}
}

func TestScenariosEndpoint(t *testing.T) {
	ts, adv := newTestServer(t)
	resp, body := get(t, ts, "/api/v1/scenarios", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("scenarios = %d", resp.StatusCode)
	}
	var out struct {
		Deployments []struct {
			Deployment string `json:"deployment"`
			Tasks      []struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			} `json:"tasks"`
		} `json:"deployments"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Deployments) != 1 || len(out.Deployments[0].Tasks) == 0 {
		t.Fatalf("scenarios = %+v", out)
	}
	if got := out.Deployments[0].Deployment; adv.TaskList(got) == nil {
		t.Fatalf("deployment %q has no task list", got)
	}

	// An advisor with no collections serves an empty list, not null.
	ts2 := httptest.NewServer(New(service.New(core.New("empty"))).Mux())
	defer ts2.Close()
	_, body = get(t, ts2, "/api/v1/scenarios", nil)
	if !strings.Contains(body, `"deployments":[]`) {
		t.Fatalf("empty scenarios = %s", body)
	}
}

func TestDatasetEndpoint(t *testing.T) {
	ts, adv := newTestServer(t)
	resp, body := get(t, ts, "/api/v1/dataset", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("dataset = %d", resp.StatusCode)
	}
	var info service.DatasetInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Points != adv.Store.Len() || info.Generation != adv.Store.Generation() {
		t.Fatalf("dataset info = %+v", info)
	}
	if !reflect.DeepEqual(info.Apps, []string{"lammps"}) || !reflect.DeepEqual(info.SKUs, []string{"hb120rs_v3"}) {
		t.Fatalf("dims = %v / %v", info.Apps, info.SKUs)
	}
}

func TestMetricsCounters(t *testing.T) {
	ts, _ := newTestServer(t)
	get(t, ts, "/api/v1/advice", nil)
	resp, _ := get(t, ts, "/api/v1/advice", map[string]string{"If-None-Match": resp0Etag(t, ts)})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d", resp.StatusCode)
	}
	_, body := get(t, ts, "/metrics", nil)
	for _, want := range []string{
		"hpcadvisor_dataset_points",
		"hpcadvisor_dataset_generation",
		"hpcadvisor_cache_hits_total",
		"hpcadvisor_http_requests_total",
		"hpcadvisor_http_not_modified_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func resp0Etag(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, _ := get(t, ts, "/api/v1/advice", nil)
	return resp.Header.Get("ETag")
}

// TestGracefulShutdown exercises the drain path: the server answers while
// the context lives, returns nil on cancellation, and refuses connections
// afterwards.
func TestGracefulShutdown(t *testing.T) {
	adv := collectedAdvisor(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, New(service.New(adv)).Mux()) }()

	url := fmt.Sprintf("http://%s/healthz", ln.Addr())
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain")
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("server still accepting after drain")
	}
}

func TestStatusOf(t *testing.T) {
	for err, want := range map[error]int{
		service.BadRequestf("x"):    http.StatusBadRequest,
		service.NotFoundf("x"):      http.StatusNotFound,
		service.Internalf(nil, "x"): http.StatusInternalServerError,
		fmt.Errorf("untyped"):       http.StatusInternalServerError,
	} {
		if got := StatusOf(err); got != want {
			t.Errorf("StatusOf(%v) = %d, want %d", err, got, want)
		}
	}
}

// nullResponseWriter is a reusable discard writer for allocation probes.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(c int)           { w.code = c }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestRevalidationAllocBound pins the tentpole's cheap-304 property: an
// If-None-Match hit on /api/v1/advice does no parsing, no query, and only
// a handful of header-plumbing allocations.
func TestRevalidationAllocBound(t *testing.T) {
	adv := collectedAdvisor(t)
	mux := New(service.New(adv)).Mux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/advice", nil))
	tag := rec.Header().Get("ETag")
	if tag == "" {
		t.Fatal("no ETag")
	}

	req := httptest.NewRequest(http.MethodGet, "/api/v1/advice", nil)
	req.Header.Set("If-None-Match", tag)
	w := &nullResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(500, func() {
		w.code = 0
		mux.ServeHTTP(w, req)
		if w.code != http.StatusNotModified {
			t.Fatalf("revalidation = %d", w.code)
		}
	})
	// Header.Set and the mux match machinery cost a few small allocations;
	// anything beyond ~8 means the handler started computing on the hit path.
	if allocs > 8 {
		t.Errorf("revalidation hit allocates %.1f objects/op, want ~zero", allocs)
	}
}

// TestScenariosDuringLiveCollect is the regression test for the registry
// race: /api/v1/scenarios (and the other registry readers) must be safe to
// hammer while a collection mutates deployments and task statuses on the
// same advisor — run with -race, this used to be a fatal concurrent map
// access and torn task reads.
func TestScenariosDuringLiveCollect(t *testing.T) {
	cfg, err := config.Parse([]byte(testConfig))
	if err != nil {
		t.Fatal(err)
	}
	adv := core.New(cfg.Subscription)
	d, err := adv.DeployCreate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(service.New(adv)).Mux())
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		_, err := adv.Collect(d.Name, cfg, core.CollectOptions{})
		done <- err
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("collect: %v", err)
			}
			// One final read sees the finished state.
			resp, body := get(t, ts, "/api/v1/scenarios", nil)
			if resp.StatusCode != 200 || !strings.Contains(body, `"completed"`) {
				t.Fatalf("post-collect scenarios = %d: %.200s", resp.StatusCode, body)
			}
			return
		default:
		}
		if resp, _ := get(t, ts, "/api/v1/scenarios", nil); resp.StatusCode != 200 {
			t.Fatalf("scenarios during collect = %d", resp.StatusCode)
		}
		if resp, _ := get(t, ts, "/api/v1/advice", nil); resp.StatusCode != 200 {
			t.Fatalf("advice during collect = %d", resp.StatusCode)
		}
	}
}

// TestAdviceJSONAllocBound pins the near-zero-alloc serving path: once a
// body is rendered at a generation, re-serving the same URL is a header
// compare, a body-cache probe, and a write — no query parsing, no engine
// probe, no encoding. The bound leaves room for the mux match and header
// plumbing only.
func TestAdviceJSONAllocBound(t *testing.T) {
	adv := collectedAdvisor(t)
	mux := New(service.New(adv)).Mux()

	// Prime: first request renders and populates the body cache.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/advice?app=lammps", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("prime request = %d", rec.Code)
	}
	primed := rec.Body.String()

	req := httptest.NewRequest(http.MethodGet, "/api/v1/advice?app=lammps", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(500, func() {
		w.code = 0
		mux.ServeHTTP(w, req)
	})
	// The row-marshaling path costs ~15 allocs/op; the cached-body path
	// must stay at least 50% below that (ISSUE 9 acceptance).
	if allocs > 7 {
		t.Errorf("hot advice serve allocates %.1f objects/op, want <= 7", allocs)
	}

	// Coherence: an append must roll the cache, not serve stale bytes.
	adv.Store.Add(dataset.Point{ScenarioID: "alloc-roll", AppName: "lammps", SKU: "Standard_HB120rs_v3",
		SKUAlias: "hb120rs_v3", NNodes: 3, ExecTimeSec: 0.001, CostUSD: 0.0001})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/advice?app=lammps", nil))
	if rec.Body.String() == primed {
		t.Fatal("body cache served a stale generation after an append")
	}
	var resp service.AdviceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != adv.Store.Generation() {
		t.Errorf("served generation %d, want %d", resp.Generation, adv.Store.Generation())
	}
}

// A failing client write must be counted, not silently dropped: the write
// error counter is the only observable trace of a truncated response.
func TestWriteErrorsCounted(t *testing.T) {
	adv := collectedAdvisor(t)
	srv := New(service.New(adv))
	mux := srv.Mux()

	w := &failingResponseWriter{h: make(http.Header)}
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/advice", nil))
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/advice?minnodes=bogus", nil))
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/plots/pareto.svg", nil))
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/predicted-advice", nil))
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if got := srv.writeErrors.Load(); got != 6 {
		t.Errorf("writeErrors = %d, want 6 (advice, healthz, error body, svg, predicted advice, metrics)", got)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hpcadvisor_http_write_errors_total 6") {
		t.Error("/metrics does not expose the write error counter")
	}
	if !strings.Contains(rec.Body.String(), "hpcadvisor_http_encode_errors_total 0") {
		t.Error("/metrics does not expose the encode error counter")
	}
}

// failingResponseWriter accepts headers but fails every body write, like a
// client that disconnected after the request line.
type failingResponseWriter struct {
	h    http.Header
	code int
}

func (w *failingResponseWriter) Header() http.Header { return w.h }
func (w *failingResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *failingResponseWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("client gone")
}
