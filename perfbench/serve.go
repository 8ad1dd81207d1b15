package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/queryengine"
)

// liveK is serve-live's append period: one Store.Add after every 40th
// completed request. At this rate first-after-append requests are a few
// percent of samples, so the median falls among cache hits and p99 among
// the requests that wait for the snapshot rebuild.
const liveK = 40

// Warm-up sizes: serve-wide issues wideWarmups queries from the far end of
// its permutation (never reached by a run); serve-live runs liveWarmups
// requests, whose appends expand the mapped snapshot into memory.
const (
	wideWarmups = 256
	liveWarmups = 400
)

// wideSampleEvery sets the share of serve-wide bodies checked against the
// scan reference after the run.
const wideSampleEvery = 16

// serveWorkload serves the 50k-point fixture: read-only with distinct
// queries (serve-wide) or hot reads beside appends (serve-live).
type serveWorkload struct {
	live bool

	srv   *server
	out   *pipelineOut
	dir   string
	base  int // points in the fixture after set-up
	memMS []float64

	queries []string // serve-wide
	next    atomic.Int64
	loop    *liveLoop // serve-live

	probeAppended int
	// traced-phase observations
	tr          *tracer
	records     uint64
	bytesPoint  float64
	api         apiCounters
	eng         queryengine.Stats
	requests    int
	replays     int
	hotReplays  int
	rows        int
	roll        *liveStats
	rollMisses  uint64
	wideSamples []wideSample
	checked     int
}

type wideSample struct {
	query string
	body  []byte
	lat   int // index of its latency in the phase's samples
}

func (w *serveWorkload) tailPercentile() float64 { return 99 }

// setup builds the fixture through the same pipeline time-to-advice times
// (the Listing-1 sweep, journaled), with fixturePoints seeded synthetic
// points loaded before compaction, then decodes every mapped row and
// warms the request path.
func (w *serveWorkload) setup(b *bench, tr *tracer) error {
	dir, err := os.MkdirTemp(b.scratch, "serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	_, ms, err := memoryAdvice(sweepConfig(b.seed))
	if err != nil {
		return fmt.Errorf("in-memory reference collection: %w", err)
	}
	w.memMS = append(w.memMS, ms)
	if w.srv, err = startServer(); err != nil {
		return err
	}
	points := newPointGen(b.seed, "syn").take(fixturePoints)
	w.out, err = runPipeline(w.srv, sweepConfig(b.seed), dir, points, tr, setupReqBase)
	if err != nil {
		return err
	}
	w.records = w.out.records
	if size, err := dirBytes(dir + "/dataset.seg"); err == nil {
		w.bytesPoint = float64(size) / float64(w.out.adv.Store.Len())
	}
	st := w.out.adv.Store
	// Materialize every lazily mapped row now, not inside the timed loop.
	st.Snapshot().Select(dataset.Filter{IncludeFailed: true})
	w.base = st.Len()
	b.env["fixture_points"] = w.base

	if w.live {
		w.loop = newLiveLoop(w.srv, st, liveOps(b.seed, 1<<16), liveK, newPointGen(b.seed+1, "live"))
		ph, _ := w.loop.run(clientConns, untilCount(liveWarmups), nil)
		if ph.failed > 0 {
			return fmt.Errorf("warm-up: %s", ph.errs[0])
		}
		return nil
	}
	w.queries = wideQueries(b.seed)
	b.env["query_space"] = len(w.queries)
	var warm atomic.Int64
	warm.Store(int64(len(w.queries) - wideWarmups))
	gen := st.Generation()
	var failed atomic.Value
	closedLoopUntil(clientConns, untilCount(wideWarmups), func() {
		i := warm.Add(1) - 1
		if _, _, err := w.wideOne(i, gen, nil); err != nil {
			failed.Store(err)
		}
	})
	if err, _ := failed.Load().(error); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// wideOne issues serve-wide request i and checks it is a 200 at the
// fixture's generation.
func (w *serveWorkload) wideOne(i int64, gen uint64, tr *tracer) (time.Duration, []byte, error) {
	q := w.queries[i%int64(len(w.queries))]
	root := tr.begin("request", -1, i)
	start := clock()
	r, err := w.srv.get("/api/v1/advice", q, "", tr, i, root)
	lat := clock().Sub(start)
	tr.end(root)
	if err != nil {
		return lat, nil, err
	}
	if r.status != http.StatusOK {
		return lat, nil, fmt.Errorf("%s: status %d: %.200s", q, r.status, r.body)
	}
	if g, ok := bodyGen(r.body); !ok || g != gen {
		return lat, nil, fmt.Errorf("%s: body generation is not the fixture's %d", q, gen)
	}
	return lat, r.body, nil
}

// sampled picks the seeded share of serve-wide requests whose bodies are
// checked against the reference.
func sampled(seed, i int64) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", seed, i)
	return h.Sum64()%wideSampleEvery == 0
}

func (w *serveWorkload) measure(b *bench, d time.Duration, tr *tracer) (*phase, error) {
	if tr != nil {
		w.tr = tr
		w.srv.setTracer(tr)
		defer w.srv.setTracer(nil)
	}
	st := w.out.adv.Store
	apiBefore, err := w.srv.scrape()
	if err != nil {
		return nil, err
	}
	engBefore := w.out.adv.Engine().Stats()

	var ph *phase
	var ls *liveStats
	if w.live {
		ph, ls = w.loop.run(clientConns, untilTime(d), tr)
	} else if ph, ls, err = w.measureWide(b, d, tr); err != nil {
		return nil, err
	}

	apiAfter, err := w.srv.scrape()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return ph, nil
	}
	w.api = apiAfter.sub(apiBefore)
	w.api.requests-- // the scrape that read apiBefore is counted in apiAfter
	w.eng = engineDelta(w.out.adv.Engine().Stats(), engBefore)
	w.requests = ls.requests
	w.replays, w.hotReplays, w.rows, err = replaySampled(tr, st.Snapshot(), ls.sampled)
	if err != nil {
		return nil, err
	}
	if ls.rolls > 0 {
		w.roll, w.rollMisses = ls, w.eng.Misses
		return ph, nil
	}
	// The pass appended nothing (serve-wide never does; a very short
	// serve-live pass may not reach its first append). A short probe
	// afterwards times the append-side layers on the same fixture.
	before := st.Len()
	w.roll, w.rollMisses, err = probe(w.srv, w.out.adv, newPointGen(b.seed, "probe"), tr)
	if err != nil {
		return nil, err
	}
	w.probeAppended += st.Len() - before
	return ph, nil
}

// measureWide runs serve-wide's closed loop: each request takes the next
// query of the permutation; a seeded sample of bodies is checked against
// the reference after the loop, and with a tracer every replayEvery-th
// request is kept for the layer replay.
func (w *serveWorkload) measureWide(b *bench, d time.Duration, tr *tracer) (*phase, *liveStats, error) {
	ph := &phase{}
	ls := &liveStats{}
	gen := w.out.adv.Store.Generation()
	var mu sync.Mutex
	start := clock()
	ph.allocs, ph.gcs = memDelta(func() {
		closedLoopUntil(clientConns, untilTime(d), func() {
			i := w.next.Add(1) - 1
			lat, body, err := w.wideOne(i, gen, tr)
			q := w.queries[i%int64(len(w.queries))]
			mu.Lock()
			defer mu.Unlock()
			ph.attempted++
			if err != nil {
				ph.failure("request %d: %v", i, err)
				ph.lat.addFailed()
				return
			}
			if sampled(b.seed, i) {
				w.wideSamples = append(w.wideSamples, wideSample{q, body, len(ph.lat)})
			}
			if tr != nil && i%replayEvery == 0 {
				ls.sampled = append(ls.sampled, sampledReq{i, q})
			}
			ph.ok++
			ph.lat.add(lat)
		})
	})
	ph.elapsed = clock().Sub(start)
	if err := w.checkWide(ph); err != nil {
		return nil, nil, err
	}
	// Every serve-wide query is new to every cache, so each request is a
	// first read of its result.
	ph.fresh = ph.lat
	ls.requests = ph.attempted
	return ph, ls, nil
}

// checkWide compares the sampled serve-wide bodies with the SelectScan
// reference at the fixture's generation. A mismatch is a wrong answer: it
// no longer counts as completed, and its latency becomes +Inf.
func (w *serveWorkload) checkWide(ph *phase) error {
	st := w.out.adv.Store
	gen := st.Generation()
	for _, s := range w.wideSamples {
		ref, err := referenceAdvice(st, gen, s.query)
		if err != nil {
			return err
		}
		if !bytes.Equal(ref, s.body) {
			ph.ok--
			ph.lat[s.lat] = math.Inf(1)
			ph.failure("%s: body differs from the SelectScan reference", s.query)
		}
	}
	w.checked += len(w.wideSamples)
	w.wideSamples = nil
	return nil
}

// finish checks that storage holds the fixture plus every point appended
// to it, durably.
func (w *serveWorkload) finish(b *bench) error {
	st := w.out.adv.Store
	if !w.live {
		b.env["bodies_checked"] = w.checked
	}
	if err := st.Flush(); err != nil {
		return fmt.Errorf("flushing store: %w", err)
	}
	appended := w.probeAppended
	if w.live {
		appended += w.loop.appendedPoints()
	}
	info, err := w.out.adv.Backend.Info()
	if err != nil {
		return err
	}
	if want := w.base + appended; info.Points != want || st.Len() != want {
		b.fail("storage reports %d points, store %d, want %d (base %d + %d appended)", info.Points, st.Len(), want, w.base, appended)
	}
	b.env["points_appended"] = appended
	return nil
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		w.srv.close()
	}
	if w.out != nil {
		w.out.adv.CloseStore()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func (w *serveWorkload) layerMetrics(b *bench) {
	spanLayers(b, w.tr)
	pipelineLayers(b, w.records, w.bytesPoint, w.memMS)
	cacheShares(b, w.requests, w.api, w.eng, w.replays, w.hotReplays, w.rows)
	rollLayers(b, w.tr, w.roll, w.rollMisses)
	if w.live {
		b.env["append_every"] = liveK
	}
}
