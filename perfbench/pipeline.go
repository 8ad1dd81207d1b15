package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"hpcadvisor/internal/cli"
	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/service"
	"hpcadvisor/internal/storage"
)

// firstAdviceQuery is the request a user sends once the sweep is served.
const firstAdviceQuery = "app=lammps"

// pipelineOut is what one config-to-advice pipeline leaves behind.
type pipelineOut struct {
	adv      *core.Advisor // cold-opened over the compacted store, still open
	body     []byte        // first /api/v1/advice body
	firstRTT time.Duration // its round trip
	records  uint64        // journal records the collection wrote
}

// runPipeline takes a sweep config from text to the first advice served
// over loopback, the way a user runs it: parse, deploy, a journaled
// collection streaming into a segment store under dir, close, compact, a
// cold open on a fresh advisor, and the first advice request. extra points,
// when given, are loaded into the store after the collection and before
// compaction (the serving fixtures). Each stage is a span under the
// pipeline root.
func runPipeline(srv *server, cfgText, dir string, extra []dataset.Point, tr *tracer, req int64) (*pipelineOut, error) {
	root := tr.begin("pipeline", -1, req)
	defer tr.end(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segDir := filepath.Join(dir, "dataset.seg")

	sp := tr.begin("config.parse", root, req)
	cfg, err := config.Parse([]byte(cfgText))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parsing config: %w", err)
	}

	adv := core.New(cfg.Subscription)
	sp = tr.begin("deploy.create", root, req)
	dep, err := adv.DeployCreate(cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("deploy create: %w", err)
	}

	sp = tr.begin("collector.collect", root, req)
	err = collectJournaled(adv, dep.Name, cfg, segDir, filepath.Join(dir, "journal.jnl"))
	tr.end(sp)
	if err != nil {
		adv.CloseStore()
		return nil, err
	}
	records := adv.Collection.Snapshot().JournalRecords

	sp = tr.begin("storage.close", root, req)
	err = adv.CloseStore()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("closing store: %w", err)
	}

	if len(extra) > 0 {
		sp = tr.begin("fixture.bulk_append", root, req)
		err = bulkAppend(segDir, extra)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	sp = tr.begin("storage.compact", root, req)
	err = compact(segDir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	cold := core.New(cfg.Subscription)
	sp = tr.begin("storage.open", root, req)
	err = cold.OpenStore(segDir)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cold open: %w", err)
	}

	sp = tr.begin("api.first_advice", root, req)
	srv.mount(cli.ServeMux(cold, cfg), cold.Store, tr)
	rq := tr.begin("request", sp, req)
	start := clock()
	r, err := srv.get("/api/v1/advice", firstAdviceQuery, "", tr, req, rq)
	rtt := clock().Sub(start)
	tr.end(rq)
	tr.end(sp)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", r.status, r.body)
	}
	if err != nil {
		cold.CloseStore()
		return nil, fmt.Errorf("first advice: %w", err)
	}
	return &pipelineOut{adv: cold, body: r.body, firstRTT: rtt, records: records}, nil
}

// collectJournaled runs the sweep with every point written through to the
// segment store at segDir and every task outcome journaled, as the collect
// command does.
func collectJournaled(adv *core.Advisor, depName string, cfg *config.Config, segDir, journalPath string) error {
	if err := adv.OpenStore(segDir); err != nil {
		return fmt.Errorf("opening store: %w", err)
	}
	j, _, err := collector.OpenJournal(journalPath)
	if err != nil {
		return fmt.Errorf("opening journal: %w", err)
	}
	_, err = adv.Collect(depName, cfg, core.CollectOptions{Journal: j})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	return nil
}

// bulkAppend loads a serving fixture's synthetic points into the segment
// store with a single fsync at the end: the fixture is set-up, not
// measured, and one sync keeps its cost off the disk's latency.
func bulkAppend(segDir string, pts []dataset.Point) error {
	s, err := storage.OpenSegments(segDir, &storage.SegmentOptions{SyncEvery: len(pts)})
	if err != nil {
		return fmt.Errorf("opening store for the fixture: %w", err)
	}
	for i := range pts {
		if err = s.Append(pts[i]); err != nil {
			break
		}
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("loading the fixture: %w", err)
	}
	return nil
}

func compact(segDir string) error {
	b, err := storage.OpenBackend(segDir)
	if err != nil {
		return fmt.Errorf("opening store for compaction: %w", err)
	}
	err = b.Compact()
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// memoryAdvice collects the sweep into memory only (no store, no journal)
// and renders the first advice body through the service layer: the bytes
// the pipeline's first advice must equal. It also returns how long the
// in-memory collection took.
func memoryAdvice(cfgText string) ([]byte, float64, error) {
	cfg, err := config.Parse([]byte(cfgText))
	if err != nil {
		return nil, 0, err
	}
	adv := core.New(cfg.Subscription)
	dep, err := adv.DeployCreate(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := clock()
	if _, err := adv.Collect(dep.Name, cfg, core.CollectOptions{}); err != nil {
		return nil, 0, err
	}
	ms := clock().Sub(start).Seconds() * 1e3
	q, _ := url.ParseQuery(firstAdviceQuery)
	req, err := service.ParseAdviceRequest(q)
	if err != nil {
		return nil, 0, err
	}
	body, _, err := service.New(adv).AdviceJSON(req)
	return body, ms, err
}

// replayOut is what replaying one advice request layer by layer found.
type replayOut struct {
	hot  bool // a precomputed hot front answers this request
	rows int  // rows the select returned
}

// replayEvery picks the traced serve requests kept for the layer replay:
// every replayEvery-th advice request.
const replayEvery = 4

// maxReplays caps the replays after one traced loop. A serve-live replay
// runs the cold path of a hot filter, over 10 ms at 50k points, so the cap
// bounds the traced run's length.
const maxReplays = 256

// sampledReq is a traced advice request kept for the layer replay.
type sampledReq struct {
	id    int64
	query string
}

// replaySampled replays up to maxReplays of reqs, evenly spread, on sn. It
// runs after the timed loop, so the replays take no CPU from the clients or
// the server while the loop is measured.
func replaySampled(tr *tracer, sn *dataset.Snapshot, reqs []sampledReq) (replays, hot, rows int, err error) {
	step := (len(reqs) + maxReplays - 1) / maxReplays
	for k := 0; k < len(reqs); k += max(step, 1) {
		rp, err := replayAdvice(tr, sn, reqs[k].query, reqs[k].id, -1)
		if err != nil {
			return replays, hot, rows, fmt.Errorf("replaying request %d: %w", reqs[k].id, err)
		}
		replays++
		if rp.hot {
			hot++
		}
		rows += rp.rows
	}
	return replays, hot, rows, nil
}

// replayAdvice re-executes an advice request on the pinned snapshot sn, one
// span per layer: the query parse, the hot-front probe, then the select,
// the Pareto advice and the JSON encode. The last three run even when a
// hot front answers the request, so every workload reports what the cold
// path costs on its queries, which is what the hot front saves.
func replayAdvice(tr *tracer, sn *dataset.Snapshot, rawQuery string, req int64, parent int) (replayOut, error) {
	root := tr.begin("replay", parent, req)
	defer tr.end(root)
	sp := tr.begin("service.parse", root, req)
	q, err := url.ParseQuery(rawQuery)
	var ar service.AdviceRequest
	if err == nil {
		ar, err = service.ParseAdviceRequest(q)
	}
	tr.end(sp)
	if err != nil {
		return replayOut{}, err
	}
	c := ar.Filter.Canonical()
	sp = tr.begin("dataset.hot_front", root, req)
	_, _, hot := sn.HotAdviceJSON(&c, ar.Order == pareto.ByCost)
	tr.end(sp)
	sp = tr.begin("dataset.select", root, req)
	pts := sn.Select(ar.Filter)
	tr.end(sp)
	sp = tr.begin("pareto.advice", root, req)
	rows := pareto.Advice(pts, ar.Order)
	tr.end(sp)
	if rows == nil {
		rows = []dataset.Point{}
	}
	sp = tr.begin("service.encode", root, req)
	_, err = json.Marshal(service.AdviceResponse{
		Generation: sn.Generation(), Sort: service.OrderName(ar.Order), Count: len(rows), Rows: rows,
	})
	tr.end(sp)
	return replayOut{hot: hot, rows: len(pts)}, err
}

// referenceAdvice renders an advice body the slow, independent way:
// SelectScan over the store's points, the Pareto advice and a reflective
// JSON marshal at the given generation.
func referenceAdvice(st *dataset.Store, gen uint64, rawQuery string) ([]byte, error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, err
	}
	ar, err := service.ParseAdviceRequest(q)
	if err != nil {
		return nil, err
	}
	rows := pareto.Advice(st.SelectScan(ar.Filter), ar.Order)
	if rows == nil {
		rows = []dataset.Point{}
	}
	return json.Marshal(service.AdviceResponse{
		Generation: gen, Sort: service.OrderName(ar.Order), Count: len(rows), Rows: rows,
	})
}
