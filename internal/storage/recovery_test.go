package storage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hpcadvisor/internal/dataset"
)

// lastWal returns the path of the highest-seq log segment in dir.
func lastWal(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal-" && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no wal segment found")
	}
	return filepath.Join(dir, last)
}

// assertPrefixRecovery reopens dir after a simulated crash and asserts the
// WAL contract: every acknowledged (synced) point survives, and whatever
// survives is an exact prefix of the appended sequence.
func assertPrefixRecovery(t *testing.T, dir string, appended []dataset.Point, acked int) ([]dataset.Point, Info) {
	t.Helper()
	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	got := st.All()
	if len(got) < acked {
		t.Fatalf("lost acknowledged points: %d survived, %d were synced", len(got), acked)
	}
	if len(got) > len(appended) {
		t.Fatalf("recovered %d points but only %d were appended", len(got), len(appended))
	}
	want := marshalOf(t, appended[:len(got)])
	if !bytes.Equal(marshalOf(t, got), want) {
		t.Fatal("recovered points are not a prefix of the appended sequence")
	}
	info, err := s.Info()
	if err != nil {
		t.Fatal(err)
	}
	return got, info
}

// TestKillAndRecoverTornFrame is the crash test of the acceptance criteria:
// a SIGKILL-style interruption mid-append (simulated by abandoning the
// handle and tearing the tail frame on disk) loses at most the
// unacknowledged tail; every synced point survives.
func TestKillAndRecoverTornFrame(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(40)

	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	acked := 25
	appendAll(t, s, pts[:acked])
	if err := s.Sync(); err != nil { // acknowledgment point
		t.Fatal(err)
	}
	appendAll(t, s, pts[acked:])
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon s without Close — the process "died". Tear the tail: the
	// final frame was only partially written to disk.
	wal := lastWal(t, dir)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	got, info := assertPrefixRecovery(t, dir, pts, acked)
	if len(got) != len(pts)-1 {
		t.Fatalf("tearing one frame should lose exactly one point, survived %d of %d", len(got), len(pts))
	}
	if !info.Recovered || info.RecoveredBytes == 0 {
		t.Fatalf("open should report the truncated tail, info = %+v", info)
	}
}

// TestKillWithoutSyncLosesOnlyUnackedTail abandons the store with appends
// still sitting in the write buffer: the unflushed suffix is genuinely
// absent from the file, exactly what a kill before the batch fsync does.
func TestKillWithoutSyncLosesOnlyUnackedTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(50)

	// Huge SyncEvery so nothing is batch-synced on its own.
	s, err := OpenSegments(dir, &SegmentOptions{SyncEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	acked := 20
	appendAll(t, s, pts[:acked])
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, pts[acked:]) // never synced, never acknowledged
	// Abandon without Close or Sync: the buffered tail dies with the
	// process (whatever auto-flushed may survive, possibly with a torn
	// final frame — both are within the contract).
	assertPrefixRecovery(t, dir, pts, acked)
}

// TestRecoverCRCCorruptedTail flips a byte inside the last frame: recovery
// must drop that frame (CRC mismatch) and keep everything before it.
func TestRecoverCRCCorruptedTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(30)

	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, pts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	wal := lastWal(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, info := assertPrefixRecovery(t, dir, pts, len(pts)-1)
	if len(got) != len(pts)-1 {
		t.Fatalf("CRC corruption in the tail frame should cost exactly that frame; survived %d of %d", len(got), len(pts))
	}
	if !info.Recovered {
		t.Fatalf("open should report recovery, info = %+v", info)
	}

	// The recovery is persistent: a second open sees a clean store.
	s3, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	info2, err := s3.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Recovered {
		t.Fatal("second open should find nothing left to recover")
	}
}

// TestRecoveryAcrossSealedSegments tears the active segment of a store
// whose earlier segments are sealed: only the active tail is touched.
func TestRecoveryAcrossSealedSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(60)

	s, err := OpenSegments(dir, &SegmentOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, pts)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	wal := lastWal(t, dir)
	fi, _ := os.Stat(wal)
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, info := assertPrefixRecovery(t, dir, pts, 0)
	if len(got) != len(pts)-1 {
		t.Fatalf("survived %d of %d", len(got), len(pts))
	}
	if !info.Recovered {
		t.Fatalf("open should report recovery, info = %+v", info)
	}
}

// TestCorruptSealedSegmentIsAnError: damage outside the crash frontier
// (a sealed, fsynced segment) must surface loudly, not be silently
// truncated away.
func TestCorruptSealedSegmentIsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	s, err := OpenSegments(dir, &SegmentOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, points(60))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the FIRST segment (sealed).
	entries, _ := os.ReadDir(dir)
	first := ""
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal-" && (first == "" || e.Name() < first) {
			first = e.Name()
		}
	}
	path := filepath.Join(dir, first)
	data, _ := os.ReadFile(path)
	data[logHeaderSize+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSegments(dir, nil); err == nil {
		t.Fatal("open should fail on a corrupt sealed segment")
	}
}

// TestRecoveryAfterCrashedCompaction: a *.tmp staging file and the
// superseded inputs left by a crash mid-compaction are cleaned up, with no
// data loss whichever side of the rename the crash fell on.
func TestRecoveryAfterCrashedCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(30)
	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, pts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash "before the rename": a stale staging file lies around.
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000000000000ff.seg.tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := loadMarshal(t, s2); !bytes.Equal(got, marshalOf(t, pts)) {
		t.Fatal("data lost around crashed compaction")
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "snapshot-0000000000000001.seg" {
			t.Fatalf("unexpected leftover %s", e.Name())
		}
	}
}

// importInto converts the JSON Lines file at src into a fresh segment
// store and returns the points it holds and the torn byte count Convert
// reported. It fails the test if the import wrote to src.
func importInto(t *testing.T, src string) (pts []dataset.Point, torn int64) {
	t.Helper()
	before, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "imported.seg")
	n, torn, err := Convert(src, dst)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	after, _ := os.ReadFile(src)
	if !bytes.Equal(before, after) {
		t.Fatal("import wrote to its source file")
	}
	s, err := OpenSegments(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != n {
		t.Fatalf("Convert reported %d points, the store holds %d", n, st.Len())
	}
	return st.All(), torn
}

// TestJSONLTornFinalLineRecovery: a crashed writer's torn final line is
// dropped on import and its length reported; every whole line survives.
func TestJSONLTornFinalLineRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	pts := points(10)
	data := marshalOf(t, pts)
	// Tear the final line mid-record.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn := importInto(t, path)
	if len(got) != len(pts)-1 {
		t.Fatalf("imported %d points, want %d", len(got), len(pts)-1)
	}
	if !bytes.Equal(marshalOf(t, got), marshalOf(t, pts[:len(pts)-1])) {
		t.Fatal("imported points are not the whole-line prefix")
	}
	lastLine := len(marshalOf(t, pts[len(pts)-1:]))
	if want := int64(lastLine - 10); torn != want {
		t.Fatalf("torn bytes = %d, want %d", torn, want)
	}
}

func TestJSONLCorruptWholeLineIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	enc, _ := json.Marshal(point(0))
	content := string(enc) + "\n{not json}\n" + string(enc) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "out.seg")
	if _, _, err := Convert(path, dst); err == nil {
		t.Fatal("a corrupt whole line is real corruption and must error")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("failed import left a destination behind (stat err %v)", err)
	}
}

// TestJSONLUnterminatedValidFinalLineIsKept: hand-written or imported
// files often omit the trailing newline; a complete, valid final record
// must be imported, not dropped as a torn tail — and the source file is
// never rewritten.
func TestJSONLUnterminatedValidFinalLineIsKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	pts := points(5)
	data := marshalOf(t, pts)
	// Strip the final newline: the last record is complete but unterminated.
	if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn := importInto(t, path)
	if len(got) != len(pts) {
		t.Fatalf("kept %d points, want %d (valid final record must survive)", len(got), len(pts))
	}
	if torn != 0 {
		t.Fatalf("a valid unterminated record is not a torn tail: %d bytes dropped", torn)
	}
	if !bytes.Equal(marshalOf(t, got), data) {
		t.Fatal("imported points differ from the source records")
	}
}

// TestRecoverGarbageHeaderOnActiveSegment: a crash between creating the
// next WAL segment and its first fsync can persist the file size with
// garbage contents. Nothing in that file was acknowledged, so open must
// recover (dropping the file), not refuse to open the store.
func TestRecoverGarbageHeaderOnActiveSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(60)
	s, err := OpenSegments(dir, &SegmentOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, pts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn creation: overwrite the ACTIVE (last) segment with
	// header-sized zeros.
	wal := lastWal(t, dir)
	data, _ := os.ReadFile(wal)
	if err := os.WriteFile(wal, make([]byte, len(data)), 0o644); err != nil {
		t.Fatal(err)
	}

	got, info := assertPrefixRecovery(t, dir, pts, 0)
	if !info.Recovered {
		t.Fatalf("open should report recovery, info = %+v", info)
	}
	if len(got) == 0 {
		t.Fatal("sealed segments should survive the torn active segment")
	}
	// And the store stays writable: the dropped seq is recreated.
	s2, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(point(1000)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendZeros appends n zero bytes to the file at path: the tail a power
// loss leaves when the size reached disk but the data did not.
func appendZeros(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverZeroFilledTail: a zero frame header (length 0, CRC 0) is not
// an empty point. Recovery cuts the zeros, the store loads, and points
// appended after the reopen stay readable.
func TestRecoverZeroFilledTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data.seg")
	pts := points(4)
	s, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, pts[:3])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendZeros(t, lastWal(t, dir), 4096)

	s2, err := OpenSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != 3 || !info.Recovered || info.RecoveredBytes != 4096 {
		t.Fatalf("open after a zero-filled tail: points %d, recovered %t, cut %d; want 3, true, 4096",
			info.Points, info.Recovered, info.RecoveredBytes)
	}
	if got := loadMarshal(t, s2); !bytes.Equal(got, marshalOf(t, pts[:3])) {
		t.Fatal("the points before the zeros did not load")
	}
	appendAll(t, s2, pts[3:])
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	assertPrefixRecovery(t, dir, pts, len(pts))
}
