package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hpcadvisor/internal/dataset"
)

func TestOpenAttachesAppendThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.seg")
	st, b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	pts := points(20)
	for i := range pts {
		st.Add(pts[i]) // through the attached backend
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	st2, b2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got, _ := st2.Marshal()
	if !bytes.Equal(got, marshalOf(t, pts)) {
		t.Fatal("append-through points did not survive reopen")
	}
}

// TestConvertRoundTripByteIdentical is the acceptance criterion: a
// jsonl -> segment -> jsonl round trip is byte-identical through
// Store.Marshal, with a compaction in the middle for good measure.
func TestConvertRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	jsonl1 := filepath.Join(dir, "a.jsonl")
	seg := filepath.Join(dir, "b.seg")
	jsonl2 := filepath.Join(dir, "c.jsonl")

	pts := points(120)
	want := marshalOf(t, pts)
	st := dataset.NewStore()
	st.AddAll(pts)
	if err := st.SaveFile(jsonl1); err != nil {
		t.Fatal(err)
	}

	n, torn, err := Convert(jsonl1, seg)
	if err != nil || n != len(pts) || torn != 0 {
		t.Fatalf("jsonl->segment: n=%d torn=%d err=%v", n, torn, err)
	}
	// Convert compacts segment destinations: the reopened store loads
	// through the sorted snapshot fast path.
	sb, err := OpenSegments(seg, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := sb.Info()
	if info.SnapshotPoints != len(pts) {
		t.Fatalf("segment destination should be compacted, info = %+v", info)
	}
	if got := loadMarshal(t, sb); !bytes.Equal(got, want) {
		t.Fatal("segment store Marshal differs from source")
	}
	sb.Close()

	n, _, err = Convert(seg, jsonl2)
	if err != nil || n != len(pts) {
		t.Fatalf("segment->jsonl: n=%d err=%v", n, err)
	}
	back, err := dataset.LoadFile(jsonl2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.Marshal()
	if !bytes.Equal(got, want) {
		t.Fatal("round-tripped jsonl Marshal is not byte-identical")
	}
	// The file itself is also exactly what SaveFile wrote originally.
	rawA, _ := os.ReadFile(jsonl1)
	rawC, _ := os.ReadFile(jsonl2)
	if !bytes.Equal(rawA, rawC) {
		t.Fatal("round-tripped jsonl file bytes differ from the original")
	}
}

func TestConvertRefusesNonEmptyDestination(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	dst := filepath.Join(dir, "dst.jsonl")
	st := dataset.NewStore()
	st.AddAll(points(3))
	if err := st.SaveFile(src); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveFile(dst); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Convert(src, dst); err == nil {
		t.Fatal("convert onto a non-empty destination must fail")
	}
	if _, _, err := Convert(src, src); err == nil {
		t.Fatal("convert onto itself must fail")
	}
	seg := filepath.Join(dir, "dst.seg")
	if _, _, err := Convert(src, seg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Convert(src, seg); err == nil {
		t.Fatal("convert onto a store that holds points must fail")
	}
	if _, _, err := Convert(filepath.Join(dir, "missing.jsonl"), filepath.Join(dir, "x.seg")); err == nil {
		t.Fatal("convert from a missing source must fail")
	}
}

// TestSeededLoadMatchesUnseededQueries: the columnar snapshot load must be
// a pure optimization — identical Select results to an in-memory store.
func TestSeededLoadMatchesUnseededQueries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := points(200)
	appendAll(t, s, pts)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref := dataset.NewStore()
	ref.AddAll(pts)
	gotAll, wantAll := st.Select(dataset.Filter{}), ref.Select(dataset.Filter{})
	if len(gotAll) != len(wantAll) {
		t.Fatalf("seeded Select: %d, want %d", len(gotAll), len(wantAll))
	}
	for i := range gotAll {
		if gotAll[i].ScenarioID != wantAll[i].ScenarioID {
			t.Fatalf("seeded Select order diverges at %d: %s vs %s", i, gotAll[i].ScenarioID, wantAll[i].ScenarioID)
		}
	}
}

// TestConcurrentAppendAndQueryWithBackend exercises the GUI-serving shape
// under the race detector: one collector goroutine streaming appends
// through the attached backend while readers query snapshots and flush.
func TestConcurrentAppendAndQueryWithBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.seg")
	st, b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			st.Add(point(i))
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st.Select(dataset.Filter{AppName: "lammps"})
				st.Flush()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st2, b2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st2.Len() != n {
		t.Fatalf("reopened store has %d points, want %d", st2.Len(), n)
	}
}

// TestAppendRejectsOversizedPoints: the write paths must refuse any record
// the read paths would reject, or an "acknowledged" point could brick the
// store on reopen.
func TestAppendRejectsOversizedPoints(t *testing.T) {
	huge := point(0)
	huge.Metrics = map[string]string{"BLOB": strings.Repeat("x", 65<<20)}
	seg, err := OpenSegments(filepath.Join(t.TempDir(), "d.seg"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if err := seg.Append(huge); err == nil {
		t.Fatal("segment Append must reject a frame over the 64MB read limit")
	}

	// The store stays usable after the rejection.
	if err := seg.Append(point(2)); err != nil {
		t.Fatalf("segment append after rejection: %v", err)
	}

	// A segment store accepts frames past the JSON Lines line limit, so
	// the export must refuse a point import could not read back, and leave
	// no file behind.
	big := point(1)
	big.Metrics = map[string]string{"BLOB": strings.Repeat("y", 17<<20)}
	if err := seg.Append(big); err != nil {
		t.Fatalf("segment append under the frame limit: %v", err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "x.jsonl")
	if _, _, err := Convert(seg.dir, out); err == nil {
		t.Fatal("export must reject a line over dataset.MaxLineBytes")
	}
	if entries, _ := os.ReadDir(filepath.Dir(out)); len(entries) != 0 {
		t.Fatalf("refused export left %d files behind", len(entries))
	}
}

// TestOpenSegmentsRejectsForeignDirectory: pointing -store at a directory
// of other data must fail loudly, not read back an "empty dataset".
func TestOpenSegmentsRejectsForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "dataset.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegments(dir, nil); err == nil {
		t.Fatal("a non-empty non-segment directory must not open as an empty store")
	}
	// An empty existing directory is still a valid fresh store.
	empty := filepath.Join(dir, "fresh.seg")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegments(empty, nil)
	if err != nil {
		t.Fatalf("empty directory should open: %v", err)
	}
	s.Close()
}

// TestConvertPublishesThroughStaging: a segment destination is built in
// dst+".tmp" and renamed into place. A staging directory left by a crashed
// convert (here: a torn WAL segment) is never read as data, is replaced by
// the next convert, and does not survive it.
func TestConvertPublishesThroughStaging(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	pts := points(50)
	if err := os.WriteFile(src, marshalOf(t, pts), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst.seg")
	stage := dst + ".tmp"
	if err := os.MkdirAll(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, walName(1)), []byte("HPALOG1\n\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _, err := Convert(src, dst); err != nil || n != len(pts) {
		t.Fatalf("convert over a leftover staging dir: n=%d err=%v", n, err)
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatalf("staging dir survived a successful convert (stat err %v)", err)
	}
	s, err := OpenSegments(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := loadMarshal(t, s); !bytes.Equal(got, marshalOf(t, pts)) {
		t.Fatal("published store differs from the source")
	}
	if info, _ := s.Info(); info.Segments != 0 || info.SnapshotPoints != len(pts) {
		t.Fatalf("published store is not fully compacted: %+v", info)
	}
}
