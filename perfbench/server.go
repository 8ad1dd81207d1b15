package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcadvisor/internal/dataset"
)

// clientConns is the closed loop's connection count: advice clients (the
// CLI, the GUI, scripts) each wait for a reply, and the machine the
// benchmark was sized on has two cores.
const clientConns = 2

// server is one loopback listener whose handler can be swapped, so the
// time-to-advice pipelines each serve a freshly opened advisor without
// re-binding a port, and one keep-alive client talking to it.
type server struct {
	srv    *http.Server
	base   string
	served chan error
	client *http.Client

	cur atomic.Pointer[mounted]
}

// mounted is the handler currently served. When tr is set, each request
// is wrapped in an api.handler span, and a snapshot left stale by an append
// is rebuilt inside a dataset.snapshot_build span before the mux runs (the
// mux would rebuild it on its first snapshot read anyway).
type mounted struct {
	h     http.Handler
	store *dataset.Store
	tr    *tracer
	built atomic.Uint64
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clientConns,
				MaxIdleConnsPerHost: clientConns,
				DisableCompression:  true,
			},
		},
	}
	s.srv = &http.Server{Handler: s, ReadHeaderTimeout: 30 * time.Second}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// mount serves h for store; tr (may be nil) traces its requests.
func (s *server) mount(h http.Handler, store *dataset.Store, tr *tracer) {
	m := &mounted{h: h, store: store, tr: tr}
	m.built.Store(store.Snapshot().Generation())
	s.cur.Store(m)
}

// setTracer swaps the tracer on the mounted handler.
func (s *server) setTracer(tr *tracer) {
	old := s.cur.Load()
	m := &mounted{h: old.h, store: old.store, tr: tr}
	m.built.Store(old.built.Load())
	s.cur.Store(m)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := s.cur.Load()
	if m == nil {
		http.Error(w, "no handler mounted", http.StatusServiceUnavailable)
		return
	}
	if m.tr == nil || r.Header.Get("X-Bench-Req") == "" {
		m.h.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	sp := m.tr.begin("api.handler", parent, req)
	if gen := m.store.Generation(); gen != m.built.Load() {
		b := m.tr.begin("dataset.snapshot_build", sp, req)
		m.built.Store(m.store.Snapshot().Generation())
		m.tr.end(b)
	}
	m.h.ServeHTTP(w, r)
	m.tr.end(sp)
}

// close stops the listener and its connections and waits for Serve to
// return.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// reply is one response as the client saw it.
type reply struct {
	status int
	body   []byte
	etag   string
}

// get issues one GET; inm, when set, is sent as If-None-Match. With a
// tracer, the request carries its id and parent span so the handler span
// links to it.
func (s *server) get(path, rawQuery, inm string, tr *tracer, req int64, parent int) (reply, error) {
	u := s.base + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	hr, err := http.NewRequestWithContext(context.Background(), http.MethodGet, u, nil)
	if err != nil {
		return reply{}, err
	}
	if inm != "" {
		hr.Header.Set("If-None-Match", inm)
	}
	if tr != nil {
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
		hr.Header.Set("X-Bench-Span", strconv.Itoa(parent))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: body, etag: resp.Header.Get("ETag")}, nil
}

// etagGen parses the generation out of an ETag of the form "g<gen>".
func etagGen(tag string) (uint64, bool) {
	t, ok := strings.CutPrefix(tag, `"g`)
	if !ok {
		return 0, false
	}
	t, ok = strings.CutSuffix(t, `"`)
	if !ok {
		return 0, false
	}
	g, err := strconv.ParseUint(t, 10, 64)
	return g, err == nil
}

// bodyGen parses the generation field that leads every advice body.
func bodyGen(body []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"generation":`))
	if !ok {
		return 0, false
	}
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	g, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	return g, err == nil
}

// apiCounters are the /metrics counters the benchmark reads.
type apiCounters struct {
	requests, notModified, bodyHits uint64
}

// scrape reads the API's /metrics counters.
func (s *server) scrape() (apiCounters, error) {
	r, err := s.get("/metrics", "", "", nil, 0, -1)
	if err != nil {
		return apiCounters{}, err
	}
	if r.status != http.StatusOK {
		return apiCounters{}, fmt.Errorf("/metrics: status %d", r.status)
	}
	var c apiCounters
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "hpcadvisor_http_requests_total":
			c.requests = v
		case "hpcadvisor_http_not_modified_total":
			c.notModified = v
		case "hpcadvisor_http_body_cache_hits_total":
			c.bodyHits = v
		}
	}
	return c, sc.Err()
}

func (c apiCounters) sub(o apiCounters) apiCounters {
	return apiCounters{c.requests - o.requests, c.notModified - o.notModified, c.bodyHits - o.bodyHits}
}

// closedLoopUntil runs clients that each call op back to back while more
// reports true, and returns once all have stopped.
func closedLoopUntil(clients int, more func() bool, op func()) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				op()
			}
		}()
	}
	wg.Wait()
}
