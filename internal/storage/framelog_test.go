package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openLog(t *testing.T, path string) (*FrameLog, [][]byte) {
	t.Helper()
	l, payloads, err := OpenFrameLog(path)
	if err != nil {
		t.Fatalf("OpenFrameLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, payloads
}

func TestFrameLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trip.jnl")
	l, payloads := openLog(t, path)
	if len(payloads) != 0 {
		t.Fatalf("fresh log returned %d payloads", len(payloads))
	}
	var want []string
	for i := 0; i < 20; i++ {
		rec := fmt.Sprintf(`{"kind":"outcome","task":"task-%d"}`, i)
		want = append(want, rec)
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Frames() != 20 {
		t.Fatalf("Frames() = %d, want 20", l.Frames())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got := openLog(t, path)
	if len(got) != len(want) {
		t.Fatalf("reopened %d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFrameLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jnl")
	l, _ := openLog(t, path)
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the file mid-way through the last frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, payloads := openLog(t, path)
	if len(payloads) != 4 {
		t.Fatalf("recovered %d payloads, want 4", len(payloads))
	}
	if l2.RecoveredCut() == 0 {
		t.Fatal("recovery reported no cut bytes for a torn tail")
	}
	// Appends after recovery land after the durable prefix.
	if err := l2.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := ReadFrameLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 5 || string(again[4]) != "after-recovery" {
		t.Fatalf("post-recovery append did not survive: %d records", len(again))
	}
}

func TestFrameLogCorruptCRCDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.jnl")
	l, _ := openLog(t, path)
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()

	// Flip a byte inside the last frame's payload: CRC mismatch.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, size-2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, payloads := openLog(t, path)
	if len(payloads) != 2 {
		t.Fatalf("recovered %d payloads past a CRC mismatch, want 2", len(payloads))
	}
}

func TestFrameLogRejectsWALSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jnl")
	if err := os.WriteFile(path, logStream(1, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFrameLog(path); err == nil {
		t.Fatal("OpenFrameLog accepted a WAL segment file")
	}
}

func TestFrameLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.jnl")
	l, _ := openLog(t, path)
	if err := l.Append([]byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Frames() != 0 {
		t.Fatalf("Frames() after Reset = %d", l.Frames())
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, err := ReadFrameLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || string(payloads[0]) != "fresh" {
		t.Fatalf("Reset did not clear the log: %d records", len(payloads))
	}
}

func TestReadFrameLogMissingFile(t *testing.T) {
	payloads, err := ReadFrameLog(filepath.Join(t.TempDir(), "absent.jnl"))
	if err != nil || payloads != nil {
		t.Fatalf("missing file: payloads=%v err=%v", payloads, err)
	}
}

// TestFrameLogZeroFilledTail: zeros after the last record are a torn tail,
// not a run of empty records, and no empty record can be appended.
func TestFrameLogZeroFilledTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zeros.jnl")
	l, _ := openLog(t, path)
	if err := l.Append([]byte("record-0")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendZeros(t, path, 4096)

	l2, payloads := openLog(t, path)
	if len(payloads) != 1 || string(payloads[0]) != "record-0" {
		t.Fatalf("recovered %d records, want only record-0", len(payloads))
	}
	if cut := l2.RecoveredCut(); cut != 4096 {
		t.Fatalf("RecoveredCut() = %d, want the 4096 zero bytes", cut)
	}
	if err := l2.Append(nil); err == nil {
		t.Fatal("Append accepted an empty record, which the reader would reject")
	}
}
