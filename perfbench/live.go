package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
)

// liveLoop is serve-live's closed loop: reads of the live API, with the
// loop itself appending one point through the store after every k-th
// completed request, so the number of generation rolls is exact. The
// traced passes of the other workloads reuse it briefly (k = 1) to time
// the append, rebuild and plot layers they do not otherwise reach.
type liveLoop struct {
	srv   *server
	store *dataset.Store
	ops   []liveOp
	k     int
	gen   *pointGen

	next     atomic.Int64  // stream index of the next request
	done     atomic.Int64  // completed requests, drives the appends
	ackGen   atomic.Uint64 // generation of the last acknowledged append
	freshDue atomic.Bool   // an append happened and no advice read since

	mu       sync.Mutex
	appended int               // guarded-by: mu
	svgGen   map[string]uint64 // guarded-by: mu; last generation seen per plot query
}

func newLiveLoop(srv *server, store *dataset.Store, ops []liveOp, k int, gen *pointGen) *liveLoop {
	l := &liveLoop{srv: srv, store: store, ops: ops, k: k, gen: gen, svgGen: map[string]uint64{}}
	l.ackGen.Store(store.Generation())
	return l
}

// liveStats are the traced-run counts of one liveLoop pass.
type liveStats struct {
	requests int
	rolls    int
	renders  []int64      // request ids of plots rendered at a new generation
	sampled  []sampledReq // advice requests kept for the layer replay
}

// run drives clients until more reports false and returns what the pass
// observed, failed and wrong replies included.
func (l *liveLoop) run(clients int, more func() bool, tr *tracer) (*phase, *liveStats) {
	ph := &phase{}
	st := &liveStats{}
	var mu sync.Mutex
	start := clock()
	ph.allocs, ph.gcs = memDelta(func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var tag string // last ETag this client saw
				for more() {
					i := l.next.Add(1) - 1
					op := l.ops[i%int64(len(l.ops))]
					lat, fresh, rendered, err := l.one(op, i, &tag, tr)
					mu.Lock()
					ph.attempted++
					if err != nil {
						ph.failure("request %d (%s): %v", i, op.query, err)
						ph.lat.addFailed()
						if fresh {
							ph.fresh.addFailed()
						}
					} else {
						ph.ok++
						ph.lat.add(lat)
						if fresh {
							ph.fresh.add(lat)
						}
						if tr != nil && op.kind != opSVG && i%replayEvery == 0 {
							st.sampled = append(st.sampled, sampledReq{i, op.query})
						}
					}
					if rendered {
						st.renders = append(st.renders, i)
					}
					mu.Unlock()
					if n := l.done.Add(1); n%int64(l.k) == 0 {
						l.appendOne(tr, i)
						mu.Lock()
						st.rolls++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
	})
	ph.elapsed = clock().Sub(start)
	st.requests = ph.attempted
	return ph, st
}

// one issues op and checks the reply: every 200 must carry a generation at
// least that of the last append acknowledged before the request left, and
// a 304 is only right for a tag that new.
func (l *liveLoop) one(op liveOp, i int64, tag *string, tr *tracer) (lat time.Duration, fresh, rendered bool, err error) {
	ack := l.ackGen.Load()
	fresh = op.kind != opSVG && l.freshDue.CompareAndSwap(true, false)
	path, inm := "/api/v1/advice", ""
	switch op.kind {
	case opRevalidate:
		inm = *tag
	case opSVG:
		path = "/api/v1/plots/pareto.svg"
	}
	root := tr.begin("request", -1, i)
	start := clock()
	r, err := l.srv.get(path, op.query, inm, tr, i, root)
	lat = clock().Sub(start)
	tr.end(root)
	if err != nil {
		return lat, fresh, false, err
	}
	tagGen, tagOK := etagGen(r.etag)
	switch {
	case r.status == http.StatusNotModified:
		if sent, ok := etagGen(inm); !ok || sent < ack || !tagOK || tagGen != sent {
			return lat, fresh, false, fmt.Errorf("304 for tag %s after append at generation %d", inm, ack)
		}
		return lat, fresh, false, nil
	case r.status != http.StatusOK:
		return lat, fresh, false, fmt.Errorf("status %d: %.200s", r.status, r.body)
	case !tagOK || tagGen < ack:
		return lat, fresh, false, fmt.Errorf("ETag %s is older than the acknowledged generation %d", r.etag, ack)
	}
	*tag = r.etag
	if op.kind == opSVG {
		l.mu.Lock()
		rendered = tagGen > l.svgGen[op.query]
		if rendered {
			l.svgGen[op.query] = tagGen
		}
		l.mu.Unlock()
		return lat, fresh, rendered, nil
	}
	if g, ok := bodyGen(r.body); !ok || g != tagGen {
		return lat, fresh, false, fmt.Errorf("body generation does not match ETag %s", r.etag)
	}
	return lat, fresh, false, nil
}

// appendOne appends the next point through the store (write-through to the
// WAL) and acknowledges its generation.
func (l *liveLoop) appendOne(tr *tracer, req int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.gen.next()
	sp := tr.begin("dataset.append", -1, req)
	l.store.Add(p)
	tr.end(sp)
	l.appended++
	l.ackGen.Store(l.store.Generation())
	l.freshDue.Store(true)
}

// appendedPoints reports how many points the loop appended.
func (l *liveLoop) appendedPoints() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// probe runs probeOps requests against adv with an append after each one,
// traced, and returns the pass's counts and the engine misses it caused.
func probe(srv *server, adv *core.Advisor, gen *pointGen, tr *tracer) (*liveStats, uint64, error) {
	const probeOps = 24
	ops := []liveOp{{opAdvice, firstAdviceQuery}, {opSVG, firstAdviceQuery}, {opRevalidate, firstAdviceQuery}}
	before := adv.Engine().Stats()
	loop := newLiveLoop(srv, adv.Store, ops, 1, gen)
	loop.next.Store(probeReqBase)
	ph, st := loop.run(1, untilCount(probeOps), tr)
	if ph.failed > 0 {
		return nil, 0, fmt.Errorf("probe: %s", ph.errs[0])
	}
	return st, adv.Engine().Stats().Misses - before.Misses, nil
}

// untilCount returns a more() that allows n calls in total.
func untilCount(n int64) func() bool {
	var c atomic.Int64
	return func() bool { return c.Add(1) <= n }
}

// untilTime returns a more() that holds until d has passed.
func untilTime(d time.Duration) func() bool {
	deadline := clock().Add(d)
	return func() bool { return clock().Before(deadline) }
}
