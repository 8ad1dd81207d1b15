package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hpcadvisor/internal/queryengine"
)

// ttaWarmups is how many untimed pipelines each set-up runs.
const ttaWarmups = 3

// ttaWorkload runs the whole config-to-first-advice pipeline as one
// operation, one pipeline at a time.
type ttaWorkload struct {
	srv     *server
	cfgText string
	ref     []byte    // first advice of an in-memory collection
	memMS   []float64 // in-memory collection times, one per set-up
	root    string
	n       int64

	// traced-phase observations
	records       uint64
	bytesPerPoint float64
	api           apiCounters
	eng           queryengine.Stats
	requests      int
	replays, hot  int
	rows          int
	probe         *liveStats
	probeMisses   uint64
	tr            *tracer
}

func (w *ttaWorkload) tailPercentile() float64 { return 90 }

func (w *ttaWorkload) setup(b *bench, tr *tracer) error {
	w.cfgText = sweepConfig(b.seed)
	root, err := os.MkdirTemp(b.scratch, "tta-")
	if err != nil {
		return err
	}
	w.root = root
	ref, ms, err := memoryAdvice(w.cfgText)
	if err != nil {
		return fmt.Errorf("in-memory reference collection: %w", err)
	}
	w.ref, w.memMS = ref, append(w.memMS, ms)
	if w.srv, err = startServer(); err != nil {
		return err
	}
	for i := 0; i < ttaWarmups; i++ {
		out, dir, err := w.pipeline(nil, setupReqBase+int64(i))
		if err != nil {
			return err
		}
		ok := bytes.Equal(out.body, w.ref)
		if err := w.discard(out, dir); err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("warm-up pipeline: first advice differs from the in-memory collection's")
		}
	}
	return nil
}

// pipeline runs the next pipeline in its own directory.
func (w *ttaWorkload) pipeline(tr *tracer, req int64) (*pipelineOut, string, error) {
	dir := filepath.Join(w.root, fmt.Sprintf("p%06d", w.n))
	w.n++
	out, err := runPipeline(w.srv, w.cfgText, dir, nil, tr, req)
	return out, dir, err
}

// discard closes a pipeline's store and deletes its files.
func (w *ttaWorkload) discard(out *pipelineOut, dir string) error {
	var err error
	if out != nil {
		err = out.adv.CloseStore()
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// measure runs pipelines until d has passed. A pipeline's latency runs from
// the config text to the first advice body; between pipelines, outside the
// timing, its files are deleted and the heap is collected, standing in for
// the fresh CLI process each user step is. Throughput is pipelines per
// second of pipeline time.
func (w *ttaWorkload) measure(b *bench, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	if tr != nil {
		w.tr = tr
	}
	more := untilTime(d)
	var cleanupErr error
	ph.allocs, ph.gcs = memDelta(func() {
		for more() && cleanupErr == nil {
			req := pipelineReqBase + w.n
			start := clock()
			out, dir, err := w.pipeline(tr, req)
			lat := clock().Sub(start)
			ph.attempted++
			switch {
			case err != nil:
				ph.failure("pipeline %d: %v", req, err)
				ph.lat.addFailed()
			case !bytes.Equal(out.body, w.ref):
				ph.failure("pipeline %d: first advice differs from the in-memory collection's", req)
				ph.lat.addFailed()
			default:
				ph.ok++
				ph.lat.add(lat)
				ph.fresh.add(out.firstRTT)
				ph.elapsed += lat
			}
			if tr != nil && err == nil {
				if terr := w.observe(out, dir, req); terr != nil {
					ph.failure("pipeline %d: %v", req, terr)
				}
			}
			cleanupErr = w.discard(out, dir)
			runtime.GC()
		}
	})
	if cleanupErr != nil {
		return nil, cleanupErr
	}
	if tr != nil {
		if err := w.runProbe(b, tr); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// observe collects a traced pipeline's counts, outside its timing: store
// size, the API and engine counters behind its first advice, and a replay
// of that request layer by layer.
func (w *ttaWorkload) observe(out *pipelineOut, dir string, req int64) error {
	w.records = out.records
	size, err := dirBytes(filepath.Join(dir, "dataset.seg"))
	if err != nil {
		return err
	}
	if n := out.adv.Store.Len(); n > 0 {
		w.bytesPerPoint = float64(size) / float64(n)
	}
	c, err := w.srv.scrape()
	if err != nil {
		return err
	}
	w.api.bodyHits += c.bodyHits
	w.api.notModified += c.notModified
	w.requests++
	st := out.adv.Engine().Stats()
	w.eng.Hits += st.Hits
	w.eng.Misses += st.Misses
	rp, err := replayAdvice(w.tr, out.adv.Engine().Snapshot(), firstAdviceQuery, req, -1)
	if err != nil {
		return err
	}
	w.replays++
	if rp.hot {
		w.hot++
	}
	w.rows += rp.rows
	return nil
}

// runProbe times the append-side layers the pipeline never reaches: one
// more pipeline, then a short live loop that appends after every request
// and re-reads advice and the plot.
func (w *ttaWorkload) runProbe(b *bench, tr *tracer) error {
	out, dir, err := w.pipeline(tr, pipelineReqBase+w.n)
	if err != nil {
		return err
	}
	defer w.discard(out, dir)
	st, misses, err := probe(w.srv, out.adv, newPointGen(b.seed, "probe"), tr)
	w.probe, w.probeMisses = st, misses
	return err
}

func (w *ttaWorkload) finish(b *bench) error { return nil }

func (w *ttaWorkload) close() {
	if w.srv != nil {
		w.srv.close()
	}
	if w.root != "" {
		os.RemoveAll(w.root)
	}
}

func (w *ttaWorkload) layerMetrics(b *bench) {
	tr := w.tr
	spanLayers(b, tr)
	pipelineLayers(b, w.records, w.bytesPerPoint, w.memMS)
	cacheShares(b, w.requests, w.api, w.eng, w.replays, w.hot, w.rows)
	rollLayers(b, tr, w.probe, w.probeMisses)
	b.env["pipeline_points"] = 18
}
