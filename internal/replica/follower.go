package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/fsatomic"
	"hpcadvisor/internal/storage"
)

// Follower failure classification. Everything else (network errors, 5xx)
// is transient and retried with backoff.
var (
	// errStale: the leader no longer serves what the manifest promised — a
	// compaction raced the fetch. Re-reading the manifest resolves it.
	errStale = errors.New("replica: manifest out of date")
	// errDiverged: local bytes are not a prefix of the leader's log (or a
	// replicated range failed to decode). A wipe-and-rebootstrap resolves it
	// when the leader still carries everything applied here; otherwise the
	// follower faults rather than serve a store that contradicts its disk.
	errDiverged = errors.New("replica: local state diverged from leader")
	// errFault: the in-memory store holds points the leader's log no longer
	// explains, so replication cannot continue without lying to readers.
	// The follower keeps serving its last-good dataset and reports the fault.
	errFault = errors.New("replica: unrecoverable divergence")
)

// FollowerOptions tune a follower's sync loop.
type FollowerOptions struct {
	// WaitMS is how long manifest long-polls park on an idle leader before
	// re-issuing. Default 2000.
	WaitMS int
	// RetryInterval backs off transient sync failures. Default 250ms.
	RetryInterval time.Duration
	// Client overrides the HTTP client (tests inject proxies). Its timeout
	// must exceed WaitMS or every idle long-poll errors.
	Client *http.Client
}

// Status is a follower's replication position, served on /replica/v1/status
// and folded into /healthz.
type Status struct {
	LeaderURL string `json:"leader_url"`
	// Applied is the local log position: points applied to the in-memory
	// store, equal to the store generation.
	Applied int `json:"applied_points"`
	// LeaderPoints is the leader's durable log position at the last
	// successful sync; Lag is the gap observed then.
	LeaderPoints int `json:"leader_points"`
	Lag          int `json:"lag_points"`
	// Synced reports at least one fully successful sync round.
	Synced bool `json:"synced"`
	// Bootstraps counts full wipe-and-resync recoveries.
	Bootstraps int    `json:"bootstraps"`
	LastError  string `json:"last_error,omitempty"`
	// Fault, when set, is permanent: replication stopped, reads serve the
	// last-good dataset, and /healthz reports degraded.
	Fault string `json:"fault,omitempty"`
}

// Follower mirrors a leader's segment store into a local directory and
// applies replicated frames to an in-memory dataset store.
//
// The design splits every sync round into two idempotent halves:
//
//	mirror: disk <- leader   (byte-exact file copies up to the durable
//	                          frontier; snapshot adoption; folded-file GC)
//	apply:  memory <- disk   (incremental frame decode of the newly
//	                          mirrored bytes, in leader append order)
//
// Either half can fail or be killed at any byte; the next round resumes
// from what disk actually holds. Because only leader-durable bytes are ever
// mirrored, the local directory is always a byte prefix of the leader's —
// after a full catch-up it is byte-identical.
type Follower struct {
	leaderURL string
	dir       string
	opts      FollowerOptions
	client    *http.Client

	// store is created once at startup and never swapped: API handlers read
	// the Advisor.Store field without synchronization, so replication must
	// only ever append through the store's own lock.
	store *dataset.Store

	// tails tracks, per local segment, how many bytes the apply half has
	// decoded. Only the sync goroutine touches it.
	tails map[uint64]*segTail

	mu      sync.Mutex
	status  Status
	changed chan struct{} // closed+replaced on every status change

	done chan struct{}
}

type segTail struct {
	dec *storage.LogStreamDecoder
	fed int64
}

// StartFollower bootstraps a follower in dir against the leader's base URL
// and starts its sync loop, which runs until ctx is cancelled. dir may be
// empty (first boot), hold a previous run's mirror (resume, torn tail
// repaired first), or be mid-bootstrap from a crash — all converge.
//
// The initial snapshot+segment mirror happens before the dataset store is
// built, so a first boot loads through the compacted snapshot's sorted
// order (the no-resort path) instead of replaying and re-sorting the log.
// If the leader is unreachable at startup the follower serves whatever its
// directory already holds and keeps retrying in the background.
func StartFollower(ctx context.Context, leaderURL, dir string, opts *FollowerOptions) (*Follower, error) {
	f := &Follower{
		leaderURL: strings.TrimRight(leaderURL, "/"),
		dir:       dir,
		tails:     make(map[uint64]*segTail),
		changed:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	if opts != nil {
		f.opts = *opts
	}
	if f.opts.WaitMS <= 0 {
		f.opts.WaitMS = 2000
	}
	if f.opts.RetryInterval <= 0 {
		f.opts.RetryInterval = 250 * time.Millisecond
	}
	f.client = f.opts.Client
	if f.client == nil {
		f.client = &http.Client{}
	}
	f.status.LeaderURL = f.leaderURL

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Repair a torn tail from a previous follower crash before anything
	// else: the mirror resumes from the local file size, which must sit on
	// a frame boundary to be a valid leader-side offset.
	if err := f.recoverLocal(); err != nil {
		return nil, err
	}
	if m, err := f.fetchManifest(ctx, 0, false); err == nil {
		if merr := f.mirror(ctx, m); errors.Is(merr, errDiverged) {
			// The directory mirrors some other log (a wiped leader's past
			// life, a copy-paste accident). Nothing is being served yet, so
			// restarting from empty is safe — and the only correct option.
			if werr := f.wipe(); werr != nil {
				return nil, werr
			}
			f.status.Bootstraps++
			f.mirror(ctx, m)
		}
	}
	st, err := f.loadLocal()
	if err != nil {
		return nil, err
	}
	f.store = st
	f.status.Applied = st.Len()
	if err := f.initTails(); err != nil {
		return nil, err
	}
	go f.run(ctx)
	return f, nil
}

// Store returns the dataset store replication appends into. It is safe for
// concurrent readers and is never replaced for the follower's lifetime.
func (f *Follower) Store() *dataset.Store { return f.store }

// Status returns the current replication position.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

// Done is closed when the sync loop has exited.
func (f *Follower) Done() <-chan struct{} { return f.done }

// WaitFor blocks until the follower has applied at least n points (or ctx
// ends, or the follower faults).
func (f *Follower) WaitFor(ctx context.Context, n int) error {
	return f.wait(ctx, func(st Status) bool { return st.Applied >= n })
}

// WaitCaughtUp blocks until a sync round observes zero lag against the
// leader's durable position (or ctx ends, or the follower faults).
func (f *Follower) WaitCaughtUp(ctx context.Context) error {
	return f.wait(ctx, func(st Status) bool { return st.Synced && st.Lag == 0 })
}

func (f *Follower) wait(ctx context.Context, ok func(Status) bool) error {
	for {
		f.mu.Lock()
		st := f.status
		ch := f.changed
		f.mu.Unlock()
		if st.Fault != "" {
			return fmt.Errorf("%w: %s", errFault, st.Fault)
		}
		if ok(st) {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

//
// Sync loop
//

func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	idle := false
	var lastVersion uint64
	for ctx.Err() == nil {
		m, err := f.fetchManifest(ctx, lastVersion, idle)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.setError(err)
			idle = false
			sleep(ctx, f.opts.RetryInterval)
			continue
		}
		// Adopt whatever version the leader reports — a restarted leader
		// resets its counter, and chasing the old one would park every poll.
		lastVersion = m.Version
		err = f.syncRound(ctx, m)
		switch {
		case err == nil:
			f.setSynced(m)
			idle = true
		case errors.Is(err, errStale):
			idle = false // a compaction raced us: re-read the manifest now
		case errors.Is(err, errDiverged):
			idle = false
			if rerr := f.rebootstrap(ctx); rerr != nil {
				if errors.Is(rerr, errFault) {
					f.setFault(rerr)
					return
				}
				if ctx.Err() != nil {
					return
				}
				f.setError(rerr)
				sleep(ctx, f.opts.RetryInterval)
			}
		default:
			if ctx.Err() != nil {
				return
			}
			f.setError(err)
			idle = false
			sleep(ctx, f.opts.RetryInterval)
		}
	}
}

func (f *Follower) syncRound(ctx context.Context, m storage.Manifest) error {
	if err := f.mirror(ctx, m); err != nil {
		return err
	}
	return f.apply(m)
}

// mirror brings the local directory up to the manifest: adopt a newer
// compacted snapshot (and delete the log files it folded), then extend each
// log segment with the leader's bytes from the local size up to the durable
// frontier. Purely file-level; resumable from any interruption.
func (f *Follower) mirror(ctx context.Context, m storage.Manifest) error {
	walSizes, localSnap, err := f.scanLocal()
	if err != nil {
		return err
	}

	if m.Snapshot == nil && localSnap > 0 {
		return fmt.Errorf("%w: local snapshot %d but leader has none", errDiverged, localSnap)
	}
	if m.Snapshot != nil {
		if localSnap > m.Snapshot.Seq {
			return fmt.Errorf("%w: local snapshot %d ahead of leader's %d", errDiverged, localSnap, m.Snapshot.Seq)
		}
		if localSnap < m.Snapshot.Seq {
			data, err := f.fetchSnapshot(ctx, m.Snapshot.Seq)
			if err != nil {
				return err
			}
			if err := fsatomic.WriteFile(filepath.Join(f.dir, storage.SnapshotSegmentName(m.Snapshot.Seq)), data, 0o644); err != nil {
				return err
			}
			if localSnap > 0 {
				os.Remove(filepath.Join(f.dir, storage.SnapshotSegmentName(localSnap)))
			}
			// Drop the log files the snapshot folded; their frames live in
			// the snapshot now (same points, same append order).
			for seq := range walSizes {
				if seq <= m.Snapshot.Seq {
					os.Remove(filepath.Join(f.dir, storage.LogSegmentName(seq)))
					delete(walSizes, seq)
					delete(f.tails, seq)
				}
			}
		}
	}

	// A local log segment the leader does not list (and no snapshot folded)
	// mirrors a log the leader no longer has.
	listed := make(map[uint64]bool, len(m.Segments))
	for _, seg := range m.Segments {
		listed[seg.Seq] = true
	}
	for seq := range walSizes {
		if !listed[seq] {
			return fmt.Errorf("%w: local segment %d not on leader", errDiverged, seq)
		}
	}

	for _, seg := range m.Segments {
		local := walSizes[seg.Seq]
		if local > seg.Size && seg.Sealed {
			return fmt.Errorf("%w: local segment %d has %d bytes, leader sealed it at %d", errDiverged, seg.Seq, local, seg.Size)
		}
		for local < seg.Size {
			data, info, err := f.fetchSegment(ctx, seg.Seq, local)
			if err != nil {
				return err
			}
			if len(data) == 0 {
				break // frontier moved backwards? re-manifest rather than spin
			}
			if err := f.appendLocal(seg.Seq, local, data); err != nil {
				return err
			}
			local += int64(len(data))
			if local >= info.Size {
				break
			}
		}
	}
	return nil
}

// apply catches the in-memory store up to the mirrored files, decoding only
// bytes beyond each segment's tail cursor. If the snapshot covers points
// not yet applied (a bootstrap, or a compaction adopted mid-lag), the store
// is instead caught up by reloading the directory and appending the missing
// suffix — valid because the applied sequence is always a prefix of the
// leader's append order.
func (f *Follower) apply(m storage.Manifest) error {
	applied := f.applied()
	if m.Snapshot != nil && applied < m.Snapshot.Count {
		return f.reloadSuffix()
	}
	for _, seg := range m.Segments {
		path := filepath.Join(f.dir, storage.LogSegmentName(seg.Seq))
		fi, err := os.Stat(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // not mirrored yet (or re-folded); next round
			}
			return err
		}
		t := f.tails[seg.Seq]
		if t == nil {
			t = &segTail{dec: storage.NewLogStreamDecoder(seg.Seq)}
			f.tails[seg.Seq] = t
		}
		if t.fed > fi.Size() {
			return fmt.Errorf("%w: segment %d shrank under its decode cursor", errDiverged, seg.Seq)
		}
		if t.fed == fi.Size() {
			continue
		}
		data := make([]byte, fi.Size()-t.fed)
		rf, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = rf.ReadAt(data, t.fed)
		rf.Close()
		if err != nil {
			return err
		}
		ferr := t.dec.Feed(data, func(p dataset.Point) error {
			f.store.Add(p)
			f.bumpApplied()
			return nil
		})
		t.fed = fi.Size()
		if ferr != nil {
			return fmt.Errorf("%w: %v", errDiverged, ferr)
		}
	}
	return nil
}

// reloadSuffix re-reads the whole local directory and appends the points
// beyond the current applied position, then re-bases every tail cursor on
// the file sizes. Used when incremental decode cannot bridge the gap (the
// snapshot jumped ahead of the applied position, or after a rebootstrap).
func (f *Follower) reloadSuffix() error {
	st, err := f.loadLocal()
	if err != nil {
		return err
	}
	pts := st.All()
	applied := f.applied()
	if len(pts) < applied {
		return fmt.Errorf("%w: %d points applied but the leader's log explains only %d", errFault, applied, len(pts))
	}
	for _, p := range pts[applied:] {
		f.store.Add(p)
	}
	f.setApplied(len(pts))
	return f.initTails()
}

// rebootstrap wipes the mirror, re-copies the leader's current state, and
// reconciles the in-memory store against it.
func (f *Follower) rebootstrap(ctx context.Context) error {
	if err := f.wipe(); err != nil {
		return err
	}
	f.mu.Lock()
	f.status.Bootstraps++
	f.mu.Unlock()
	m, err := f.fetchManifest(ctx, 0, false)
	if err != nil {
		return err
	}
	if err := f.mirror(ctx, m); err != nil {
		return err
	}
	return f.reloadSuffix()
}

//
// Local file plumbing
//

// recoverLocal opens the directory through the storage engine purely for
// its recovery side effects: truncating a torn tail, clearing staging
// files, dropping snapshot-folded segments a crash left behind.
func (f *Follower) recoverLocal() error {
	seg, err := storage.OpenSegments(f.dir, nil)
	if err != nil {
		return err
	}
	return seg.Close()
}

// loadLocal loads the mirrored directory into a dataset store (points in
// leader append order, a compacted snapshot served over its columns).
func (f *Follower) loadLocal() (*dataset.Store, error) {
	seg, err := storage.OpenSegments(f.dir, nil)
	if err != nil {
		return nil, err
	}
	defer seg.Close()
	return seg.Load()
}

// initTails positions every segment's decode cursor at its current file
// size by replaying the local bytes without emitting — those points are
// already in the store.
func (f *Follower) initTails() error {
	f.tails = make(map[uint64]*segTail)
	walSizes, _, err := f.scanLocal()
	if err != nil {
		return err
	}
	for seq, size := range walSizes {
		data, err := os.ReadFile(filepath.Join(f.dir, storage.LogSegmentName(seq)))
		if err != nil {
			return err
		}
		t := &segTail{dec: storage.NewLogStreamDecoder(seq)}
		if err := t.dec.Feed(data, func(dataset.Point) error { return nil }); err != nil {
			return fmt.Errorf("%w: %v", errDiverged, err)
		}
		t.fed = size
		f.tails[seq] = t
	}
	return nil
}

// scanLocal lists the mirrored segment files: log sizes by seq, and the
// snapshot seq (0 if none).
func (f *Follower) scanLocal() (map[uint64]int64, uint64, error) {
	walSizes := make(map[uint64]int64)
	var snapSeq uint64
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range entries {
		seq, kind, ok := storage.ParseSegmentName(e.Name())
		if !ok {
			continue
		}
		switch kind {
		case storage.SegmentLog:
			fi, err := e.Info()
			if err != nil {
				return nil, 0, err
			}
			walSizes[seq] = fi.Size()
		case storage.SegmentSnapshot:
			if seq > snapSeq {
				snapSeq = seq
			}
		}
	}
	return walSizes, snapSeq, nil
}

// appendLocal extends a mirrored log segment with leader bytes starting at
// offset at (which must equal the current file size) and fsyncs, so the
// local durable state never trails what apply has decoded.
func (f *Follower) appendLocal(seq uint64, at int64, data []byte) error {
	path := filepath.Join(f.dir, storage.LogSegmentName(seq))
	wf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer wf.Close()
	fi, err := wf.Stat()
	if err != nil {
		return err
	}
	if fi.Size() != at {
		return fmt.Errorf("%w: segment %d is %d bytes locally, expected %d", errDiverged, seq, fi.Size(), at)
	}
	if _, err := wf.WriteAt(data, at); err != nil {
		return err
	}
	return wf.Sync()
}

func (f *Follower) wipe() error {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") || strings.Contains(name, ".tmp-") {
			if err := os.Remove(filepath.Join(f.dir, name)); err != nil {
				return err
			}
		}
	}
	f.tails = make(map[uint64]*segTail)
	return nil
}

//
// Leader HTTP client
//

func (f *Follower) fetchManifest(ctx context.Context, ifVersion uint64, idle bool) (storage.Manifest, error) {
	q := url.Values{}
	if idle {
		q.Set("if_version", strconv.FormatUint(ifVersion, 10))
		q.Set("wait_ms", strconv.Itoa(f.opts.WaitMS))
	}
	body, _, err := f.get(ctx, "/replica/v1/manifest", q)
	if err != nil {
		return storage.Manifest{}, err
	}
	var m storage.Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return storage.Manifest{}, fmt.Errorf("replica: decoding manifest: %w", err)
	}
	return m, nil
}

func (f *Follower) fetchSnapshot(ctx context.Context, seq uint64) ([]byte, error) {
	q := url.Values{"seq": {strconv.FormatUint(seq, 10)}}
	body, _, err := f.get(ctx, "/replica/v1/snapshot", q)
	return body, err
}

func (f *Follower) fetchSegment(ctx context.Context, seq uint64, from int64) ([]byte, storage.SegmentInfo, error) {
	q := url.Values{
		"seq":  {strconv.FormatUint(seq, 10)},
		"from": {strconv.FormatInt(from, 10)},
	}
	body, hdr, err := f.get(ctx, "/replica/v1/segment", q)
	if err != nil {
		return nil, storage.SegmentInfo{}, err
	}
	info := storage.SegmentInfo{Seq: seq}
	info.Size, _ = strconv.ParseInt(hdr.Get("X-Replica-Size"), 10, 64)
	info.Sealed, _ = strconv.ParseBool(hdr.Get("X-Replica-Sealed"))
	return body, info, nil
}

func (f *Follower) get(ctx context.Context, path string, q url.Values) ([]byte, http.Header, error) {
	u := f.leaderURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, resp.Header, nil
	case http.StatusNotFound:
		return nil, nil, fmt.Errorf("%w: %s gone", errStale, path)
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, nil, fmt.Errorf("%w: %s rejected offset", errDiverged, path)
	default:
		return nil, nil, fmt.Errorf("replica: leader returned %s for %s", resp.Status, path)
	}
}

//
// Status bookkeeping
//

func (f *Follower) applied() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status.Applied
}

func (f *Follower) bumpApplied() {
	f.mu.Lock()
	f.status.Applied++
	f.notify()
	f.mu.Unlock()
}

func (f *Follower) setApplied(n int) {
	f.mu.Lock()
	f.status.Applied = n
	f.notify()
	f.mu.Unlock()
}

func (f *Follower) setSynced(m storage.Manifest) {
	f.mu.Lock()
	f.status.Synced = true
	f.status.LeaderPoints = m.Points
	f.status.Lag = m.Points - f.status.Applied
	if f.status.Lag < 0 {
		f.status.Lag = 0
	}
	f.status.LastError = ""
	f.notify()
	f.mu.Unlock()
}

func (f *Follower) setError(err error) {
	f.mu.Lock()
	f.status.LastError = err.Error()
	f.notify()
	f.mu.Unlock()
}

func (f *Follower) setFault(err error) {
	f.mu.Lock()
	f.status.Fault = err.Error()
	f.notify()
	f.mu.Unlock()
}

// notify wakes status waiters. Callers hold f.mu.
func (f *Follower) notify() {
	close(f.changed)
	f.changed = make(chan struct{})
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d) //hpcvet:allow simdeterminism replication retry backoff waits on real time
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
