package replica_test

// Fault harness for the replication protocol. Every test runs a real
// leader (segment store + HTTP endpoints) and real followers over
// httptest, then injects the failures a serving fleet actually meets:
// leader crash with a torn WAL tail, follower crash with a torn mirror,
// compaction racing a lagging follower, and sustained writes against a
// slow follower. The oracle throughout is byte-identity: a caught-up
// follower's directory must equal the leader's file-for-file, and its
// dataset generation (the API ETag basis) must equal the leader's at the
// same log position.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpcadvisor/internal/api"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/monitor"
	"hpcadvisor/internal/replica"
	"hpcadvisor/internal/service"
	"hpcadvisor/internal/storage"
)

func point(i int) dataset.Point {
	skus := []string{"Standard_HB120rs_v3", "Standard_HC44rs", "Standard_F72s_v2"}
	aliases := []string{"hb120v3", "hc44", "f72"}
	nodes := []int{1, 2, 4, 8}
	return dataset.Point{
		ScenarioID:  fmt.Sprintf("lammps-n%03d", i),
		AppName:     "lammps",
		SKU:         skus[i%len(skus)],
		SKUAlias:    aliases[i%len(aliases)],
		NNodes:      nodes[i%len(nodes)],
		PPN:         16,
		InputDesc:   fmt.Sprintf("BOXFACTOR=%d", 10+i%3),
		ExecTimeSec: 100.5 / float64(1+i%7),
		CostUSD:     0.125 * float64(1+i%5),
		Utilization: monitor.Sample{CPUUtil: 0.8, MemBWUtil: 0.5, NetUtil: 0.25},
		CollectedAt: float64(1000 + i),
	}
}

// testOpts makes follower rounds fast enough for -race CI runs.
func testOpts() *replica.FollowerOptions {
	return &replica.FollowerOptions{WaitMS: 50, RetryInterval: 5 * time.Millisecond}
}

func openLeader(t *testing.T, dir string, syncEvery int) *storage.SegmentStore {
	t.Helper()
	seg, err := storage.OpenSegments(dir, &storage.SegmentOptions{SyncEvery: syncEvery})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

func appendPoints(t *testing.T, seg *storage.SegmentStore, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := seg.Append(point(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func serveLeader(t *testing.T, seg *storage.SegmentStore) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(replica.NewLeader(seg).Mux())
	t.Cleanup(srv.Close)
	return srv
}

func startFollower(t *testing.T, url, dir string) (*replica.Follower, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	fol, err := replica.StartFollower(ctx, url, dir, testOpts())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		<-fol.Done()
	})
	return fol, cancel
}

func waitFor(t *testing.T, fol *replica.Follower, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := fol.WaitFor(ctx, n); err != nil {
		t.Fatalf("waiting for %d points (status %+v): %v", n, fol.Status(), err)
	}
}

func waitSynced(t *testing.T, fol *replica.Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := fol.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("waiting for sync (status %+v): %v", fol.Status(), err)
	}
}

// dirBytes reads every segment file of a store directory.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return out
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// requireIdentical asserts the follower's mirror is byte-identical to the
// leader's directory, allowing time for the last round to land.
func requireIdentical(t *testing.T, leaderDir, followerDir string) {
	t.Helper()
	eventually(t, "byte-identical directories", func() bool {
		return reflect.DeepEqual(dirBytes(t, leaderDir), dirBytes(t, followerDir))
	})
}

// tornTail simulates a crash mid-write: garbage bytes at the end of the
// newest log segment, as a torn OS-level write would leave them.
func tornTail(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no log segment to tear")
	}
	f, err := os.OpenFile(filepath.Join(dir, newest), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x99\x12torn-frame-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// swapProxy gives the leader a stable URL across simulated kills: nil
// handler means the leader is down (502), exactly what a follower sees
// through a load balancer while the leader restarts.
type swapProxy struct {
	h atomic.Pointer[http.Handler]
}

func (p *swapProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := p.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "leader down", http.StatusBadGateway)
}

func (p *swapProxy) set(h http.Handler) {
	if h == nil {
		p.h.Store(nil)
		return
	}
	p.h.Store(&h)
}

func TestFollowerBootstrapsFromSnapshotAndConverges(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	appendPoints(t, seg, 0, 40)
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	appendPoints(t, seg, 40, 20)
	srv := serveLeader(t, seg)

	followerDir := filepath.Join(t.TempDir(), "mirror")
	fol, _ := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol, 60)

	if got := fol.Store().Len(); got != 60 {
		t.Fatalf("follower has %d points, want 60", got)
	}
	if gen := fol.Store().Generation(); gen != 60 {
		t.Fatalf("follower generation %d, want log position 60", gen)
	}
	requireIdentical(t, leaderDir, followerDir)

	leaderStore, err := seg.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(leaderStore.All(), fol.Store().All()) {
		t.Fatal("follower points differ from leader's in content or order")
	}
	waitSynced(t, fol)
	if st := fol.Status(); !st.Synced || st.Lag != 0 || st.Bootstraps != 0 {
		t.Fatalf("unexpected status after clean bootstrap: %+v", st)
	}
}

func TestFollowerLiveTailsAppends(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	srv := serveLeader(t, seg)
	followerDir := filepath.Join(t.TempDir(), "mirror")
	fol, _ := startFollower(t, srv.URL, followerDir)

	for round := 0; round < 5; round++ {
		appendPoints(t, seg, round*10, 10)
		waitFor(t, fol, (round+1)*10)
	}
	if gen := fol.Store().Generation(); gen != 50 {
		t.Fatalf("generation %d after tailing, want 50", gen)
	}
	requireIdentical(t, leaderDir, followerDir)
}

func TestLeaderKillRestartMidStreamWithTornTail(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	appendPoints(t, seg, 0, 30)

	proxy := &swapProxy{}
	proxy.set(replica.NewLeader(seg).Mux())
	srv := httptest.NewServer(proxy)
	t.Cleanup(srv.Close)

	followerDir := filepath.Join(t.TempDir(), "mirror")
	fol, _ := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol, 30)

	// Kill the leader: stop serving, abandon the store without closing (a
	// crash never seals), and tear the tail of its active segment.
	proxy.set(nil)
	tornTail(t, leaderDir)

	// Restart: recovery truncates the torn tail, then serving resumes at
	// the same URL with more writes.
	seg2 := openLeader(t, leaderDir, 1)
	appendPoints(t, seg2, 30, 30)
	proxy.set(replica.NewLeader(seg2).Mux())

	waitFor(t, fol, 60)
	requireIdentical(t, leaderDir, followerDir)
	if st := fol.Status(); st.Bootstraps != 0 {
		t.Fatalf("leader restart should not force a follower re-bootstrap, got %+v", st)
	}
}

func TestFollowerKillRestartWithTornLocalTail(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	appendPoints(t, seg, 0, 50)
	srv := serveLeader(t, seg)

	followerDir := filepath.Join(t.TempDir(), "mirror")
	fol1, cancel1 := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol1, 50)

	// Kill the follower, then tear its mirror's tail as a crashed disk
	// write would.
	cancel1()
	<-fol1.Done()
	tornTail(t, followerDir)

	// A restarted follower repairs the tear, resumes from its (now
	// shorter) cursor, and converges.
	appendPoints(t, seg, 50, 10)
	fol2, _ := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol2, 60)
	requireIdentical(t, leaderDir, followerDir)
	if gen := fol2.Store().Generation(); gen != 60 {
		t.Fatalf("generation %d after restart, want 60", gen)
	}
}

func TestFollowerAdoptsCompactionWhileTailing(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	appendPoints(t, seg, 0, 40)
	srv := serveLeader(t, seg)

	followerDir := filepath.Join(t.TempDir(), "mirror")
	fol, _ := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol, 40)

	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	appendPoints(t, seg, 40, 20)

	waitFor(t, fol, 60)
	requireIdentical(t, leaderDir, followerDir)
	if st := fol.Status(); st.Bootstraps != 0 {
		t.Fatalf("compaction adoption should not wipe the mirror, got %+v", st)
	}
	if gen := fol.Store().Generation(); gen != 60 {
		t.Fatalf("generation %d after compaction, want 60", gen)
	}
}

func TestLaggingFollowerCrossesCompaction(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	appendPoints(t, seg, 0, 30)

	proxy := &swapProxy{}
	proxy.set(replica.NewLeader(seg).Mux())
	srv := httptest.NewServer(proxy)
	t.Cleanup(srv.Close)

	followerDir := filepath.Join(t.TempDir(), "mirror")
	fol, _ := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol, 30)

	// Cut the follower off, then append and compact: every log segment the
	// follower's cursor points into is folded away.
	proxy.set(nil)
	appendPoints(t, seg, 30, 30)
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	appendPoints(t, seg, 60, 10)
	proxy.set(replica.NewLeader(seg).Mux())

	// The follower bridges the gap through the snapshot: its applied
	// prefix is a prefix of the snapshot's append order, so it adopts the
	// snapshot and appends the missing suffix — no wipe needed.
	waitFor(t, fol, 70)
	requireIdentical(t, leaderDir, followerDir)
	if gen := fol.Store().Generation(); gen != 70 {
		t.Fatalf("generation %d after crossing compaction, want 70", gen)
	}
}

func TestLaggingFollowerRestartCrossesCompaction(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	appendPoints(t, seg, 0, 30)
	srv := serveLeader(t, seg)

	followerDir := filepath.Join(t.TempDir(), "mirror")
	fol1, cancel1 := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol1, 30)
	cancel1()
	<-fol1.Done()

	appendPoints(t, seg, 30, 30)
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}

	// Reboot against a leader whose log was entirely folded: the follower
	// drops its folded mirror files, adopts the snapshot, and loads through
	// the columnar no-resort path.
	fol2, _ := startFollower(t, srv.URL, followerDir)
	waitFor(t, fol2, 60)
	requireIdentical(t, leaderDir, followerDir)
	if gen := fol2.Store().Generation(); gen != 60 {
		t.Fatalf("generation %d after reboot across compaction, want 60", gen)
	}
}

// TestSlowFollowerNeverOverreachesDurable hammers the leader with live
// appends while the follower tails, and asserts the replication lag
// invariant throughout: a follower never applies a point the leader has
// not made durable, so a leader crash can never strand a follower ahead
// of recovery.
func TestSlowFollowerNeverOverreachesDurable(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 4)
	srv := serveLeader(t, seg)
	fol, _ := startFollower(t, srv.URL, filepath.Join(t.TempDir(), "mirror"))

	const total = 400
	for i := 0; i < total; i++ {
		if err := seg.Append(point(i)); err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 {
			m, err := seg.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if applied := fol.Status().Applied; applied > m.Points {
				t.Fatalf("follower applied %d points but only %d are durable", applied, m.Points)
			}
		}
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, fol, total)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := fol.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	if st := fol.Status(); st.Lag != 0 {
		t.Fatalf("lag %d after catch-up, want 0", st.Lag)
	}
}

// TestLeaderFollowerServeIdenticalResponses is the acceptance check: at
// the same log position, leader and follower return byte-identical
// /api/v1/advice bodies under the same ETag, and a client can revalidate
// against either.
func TestLeaderFollowerServeIdenticalResponses(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "dataset.seg")
	st, seg, err := storage.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })

	leaderAdv := core.New("sub-leader")
	leaderAdv.SetStore(st)
	leaderAdv.Backend = seg
	for i := 0; i < 25; i++ {
		st.Add(point(i))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	leaderMux := http.NewServeMux()
	leaderMux.Handle("/api/v1/", api.New(service.New(leaderAdv)).Mux())
	leaderMux.Handle("/replica/v1/", replica.NewLeader(seg).Mux())
	leaderSrv := httptest.NewServer(leaderMux)
	t.Cleanup(leaderSrv.Close)

	fol, _ := startFollower(t, leaderSrv.URL, filepath.Join(t.TempDir(), "mirror"))
	waitFor(t, fol, 25)

	followerAdv := core.New("sub-follower")
	followerAdv.SetStore(fol.Store())
	followerSrv := httptest.NewServer(api.New(service.New(followerAdv)).Mux())
	t.Cleanup(followerSrv.Close)

	get := func(base, path, inm string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	for _, path := range []string{"/api/v1/advice", "/api/v1/advice?app=lammps&sort=cost"} {
		lresp, lbody := get(leaderSrv.URL, path, "")
		fresp, fbody := get(followerSrv.URL, path, "")
		if lresp.StatusCode != http.StatusOK || fresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d vs %d", path, lresp.StatusCode, fresp.StatusCode)
		}
		le, fe := lresp.Header.Get("ETag"), fresp.Header.Get("ETag")
		if le == "" || le != fe {
			t.Fatalf("%s: ETag mismatch at same log position: leader %q follower %q", path, le, fe)
		}
		if !bytes.Equal(lbody, fbody) {
			t.Fatalf("%s: bodies differ at same log position", path)
		}
		// A cache warmed by the leader revalidates successfully against the
		// follower — the load-balancer coherence property.
		revalidated, _ := get(followerSrv.URL, path, le)
		if revalidated.StatusCode != http.StatusNotModified {
			t.Fatalf("%s: follower revalidation with leader ETag got %d, want 304", path, revalidated.StatusCode)
		}
	}
}

func TestReadOnlyGuardRejectsWrites(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(replica.ReadOnly(inner))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/advice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET through guard got %d, want 200", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/collect", "application/x-www-form-urlencoded", strings.NewReader("deployment=x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST through guard got %d, want 403", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Status != http.StatusForbidden || !strings.Contains(body.Error.Message, "read-only") {
		t.Fatalf("unexpected guard error body: %+v", body)
	}
}

func TestFollowerStatusEndpoint(t *testing.T) {
	leaderDir := t.TempDir()
	seg := openLeader(t, leaderDir, 1)
	appendPoints(t, seg, 0, 10)
	srv := serveLeader(t, seg)
	fol, _ := startFollower(t, srv.URL, filepath.Join(t.TempDir(), "mirror"))
	waitFor(t, fol, 10)
	waitSynced(t, fol)

	statusSrv := httptest.NewServer(fol.StatusHandler())
	t.Cleanup(statusSrv.Close)
	resp, err := http.Get(statusSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st replica.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Applied != 10 || !st.Synced || st.Fault != "" {
		t.Fatalf("unexpected status body: %+v", st)
	}
}

// BenchmarkReplicaFanoutThroughput measures replication throughput with
// one writer and a small follower fleet: points/s is the aggregate rate
// at which appended points land applied across all followers.
func BenchmarkReplicaFanoutThroughput(b *testing.B) {
	const fanout = 4
	seg, err := storage.OpenSegments(b.TempDir(), &storage.SegmentOptions{SyncEvery: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer seg.Close()
	srv := httptest.NewServer(replica.NewLeader(seg).Mux())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	fols := make([]*replica.Follower, fanout)
	for i := range fols {
		fol, err := replica.StartFollower(ctx, srv.URL, filepath.Join(b.TempDir(), "mirror"), testOpts())
		if err != nil {
			cancel()
			b.Fatal(err)
		}
		fols[i] = fol
	}
	defer func() {
		cancel()
		for _, fol := range fols {
			<-fol.Done()
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := seg.Append(point(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := seg.Sync(); err != nil {
		b.Fatal(err)
	}
	for _, fol := range fols {
		if err := fol.WaitFor(ctx, b.N); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*fanout)/b.Elapsed().Seconds(), "points/s")
}
