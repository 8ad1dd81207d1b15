package storage

// Fuzz coverage for the two byte-level parsers an attacker (or a torn
// disk) actually reaches: the frame/stream decoder that followers feed
// with replicated bytes, and segment recovery over arbitrary on-disk
// contents. Both must classify garbage — never panic, never over-read.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hpcadvisor/internal/dataset"
)

// logStream renders a valid log segment header for seq followed by body.
func logStream(seq uint64, body []byte) []byte {
	var hdr [logHeaderSize]byte
	copy(hdr[:8], logMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	return append(hdr[:], body...)
}

// encodedFrames renders n real points as wire frames.
func encodedFrames(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		payload, err := json.Marshal(point(i))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := appendFrame(&buf, payload); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

func FuzzFrameDecode(f *testing.F) {
	// Seed with real frame encodings: whole streams, a single frame, a
	// truncated frame, zero-filled tails, and pure garbage.
	frames := encodedFrames(f, 3)
	f.Add(frames)
	one := encodedFrames(f, 1)
	f.Add(one)
	f.Add(one[:len(one)-3])
	f.Add(one[:frameHeaderSize-2])
	f.Add([]byte{})
	f.Add([]byte("\x99\x12torn-frame-garbage"))
	// A zero-filled tail (the usual power-loss artifact) is corrupt, not a
	// run of empty frames, even though CRC-32C("") is 0.
	f.Add(make([]byte, 64))
	f.Add(append(append([]byte(nil), frames...), make([]byte, 4096)...))
	// A frame with an implausible length prefix must be rejected, not
	// trusted as an allocation size.
	huge := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(huge[:4], maxFramePayload+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The whole-buffer scan: every whole frame before the first that is
		// not, and how that one is not.
		var payloads [][]byte
		n, err := scanFrames(data, func(payload []byte) error {
			if len(payload) == 0 || len(payload) > maxFramePayload {
				t.Fatalf("scan returned a %d-byte payload", len(payload))
			}
			payloads = append(payloads, payload)
			return nil
		})
		if n > len(data) || (err == nil && n != len(data)) {
			t.Fatalf("scan consumed %d of %d bytes (err %v)", n, len(data), err)
		}
		corrupt := errors.Is(err, errCorruptFrame)
		if err != nil && !corrupt && !errors.Is(err, errShortFrame) {
			t.Fatalf("scan stopped on neither a short nor a corrupt frame: %v", err)
		}
		// What the stream must emit: the points of those payloads, up to
		// the first payload that is not a point (which fails the stream).
		var want []string
		for _, payload := range payloads {
			var p dataset.Point
			if json.Unmarshal(payload, &p) != nil {
				corrupt = true
				break
			}
			want = append(want, pointJSON(t, p))
		}

		// The stream decoder over the same bytes, in chunk sizes drawn from
		// the input, must emit exactly those points and fail, stickily, if
		// and only if the scan stopped on something corrupt.
		dec := NewLogStreamDecoder(7)
		stream := logStream(7, data)
		var got []string
		var feedErr error
		for i, k := 0, 0; i < len(stream) && feedErr == nil; k++ {
			end := i + 1
			if len(data) > 0 {
				end += int(data[k%len(data)]) % 17
			}
			end = min(end, len(stream))
			feedErr = dec.Feed(stream[i:end], func(p dataset.Point) error {
				got = append(got, pointJSON(t, p))
				return nil
			})
			i = end
		}
		if (feedErr != nil) != corrupt {
			t.Fatalf("stream error %v, but the scan stopped on a corrupt frame: %t", feedErr, corrupt)
		}
		if feedErr != nil && dec.Feed(nil, func(dataset.Point) error { return nil }) == nil {
			t.Fatal("decoder accepted input after a decode failure")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("stream emitted %d points, the scan found %d", len(got), len(want))
		}
	})
}

// pointJSON renders p for comparison.
func pointJSON(t *testing.T, p dataset.Point) string {
	enc, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

func FuzzJournalDecode(f *testing.F) {
	// Seed with a well-formed frame log, torn tails at several cuts, a
	// wrong-magic file, and garbage. OpenFrameLog must classify each —
	// recover or reject, never panic — and the survivor must keep
	// accepting appends.
	frames := encodedFrames(f, 3)
	valid := append([]byte(frameLogMagic), frames...)
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(valid[:frameLogHeaderSize+3])
	f.Add(valid[:frameLogHeaderSize-2])
	f.Add(append(append([]byte(nil), valid...), make([]byte, 512)...)) // zero-filled tail
	f.Add([]byte(logMagic))                                            // a WAL segment is not a journal
	f.Add([]byte("garbage that is not framed"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jnl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, payloads, err := OpenFrameLog(path)
		if err != nil {
			return // rejected as foreign/corrupt — fine, as long as no panic
		}
		for _, p := range payloads {
			if len(p) > maxFramePayload {
				t.Fatalf("recovered an over-long payload: %d bytes", len(p))
			}
		}
		if got := l.Frames(); got != len(payloads) {
			t.Fatalf("Frames() = %d, recovered %d payloads", got, len(payloads))
		}
		// The recovered log must accept appends, and a clean reopen must
		// return the survivors plus the new record.
		if err := l.Append([]byte("probe-record")); err != nil {
			t.Fatalf("recovered frame log rejected an append: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFrameLog(path)
		if err != nil {
			t.Fatalf("reread after recovery failed: %v", err)
		}
		if len(again) != len(payloads)+1 {
			t.Fatalf("reread %d payloads, want %d", len(again), len(payloads)+1)
		}
		if string(again[len(again)-1]) != "probe-record" {
			t.Fatalf("appended record did not survive: %q", again[len(again)-1])
		}
	})
}

// v2SnapshotBytes renders a valid v2 columnar snapshot for n points folded
// through seq.
func v2SnapshotBytes(tb testing.TB, n int, seq uint64) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "snap.seg")
	if err := writeSnapshotSegmentV2(path, seq, imageOf(tb, points(n))); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzSnapshotOpen(f *testing.F) {
	// Arbitrary bytes in a snapshot segment's place: the v2 header/table
	// parse, section CRC sweep, mmap construction, and the v1 frame parse
	// must classify every input — reject or serve the real data, never
	// panic, never serve garbage. Seeds cover both formats, truncations at
	// header/table/section boundaries, and targeted bit flips.
	valid := v2SnapshotBytes(f, 30, 1)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:v2HeaderSize])
	f.Add(valid[:v2HeaderSize+v2SecDescSize+5])
	f.Add(valid[:v2Align-1])
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x20
		return b
	}
	f.Add(flip(3))                // magic
	f.Add(flip(9))                // fold seq
	f.Add(flip(17))               // count
	f.Add(flip(37))               // header CRC
	f.Add(flip(v2HeaderSize + 9)) // a section descriptor offset
	f.Add(flip(len(valid) - 2))   // tail section payload
	f.Add(flip(len(valid) / 2))   // mid-file payload
	f.Add([]byte(snapMagicV2))
	f.Add([]byte("HPASNAP3 future format??"))
	f.Add([]byte{})
	// A v1 snapshot of the same fold exercises the version dispatch.
	v1path := filepath.Join(f.TempDir(), "v1.seg")
	pts := points(5)
	if err := writeSnapshotSegmentV1(v1path, 1, pts, canonicalOrder(pts)); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(v1path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v1[:len(v1)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegments(dir, nil)
		if err != nil {
			return // rejected at open — fine, as long as no panic
		}
		defer seg.Close()
		st, err := seg.Load()
		if err != nil {
			return // rejected by CRC/bounds — fine
		}
		// A snapshot that loaded must be internally consistent and keep
		// accepting appends.
		sn := st.Snapshot()
		if sn.Len() != st.Len() {
			t.Fatalf("snapshot len %d != store len %d", sn.Len(), st.Len())
		}
		for _, p := range st.Select(dataset.Filter{IncludeFailed: true}) {
			_ = p
		}
		if err := seg.Append(point(1000)); err != nil {
			t.Fatalf("loaded store rejected an append: %v", err)
		}
		if err := seg.Sync(); err != nil {
			t.Fatal(err)
		}
		st2, err := seg.Load()
		if err != nil {
			t.Fatalf("reload after append failed: %v", err)
		}
		if st2.Len() != st.Len()+1 {
			t.Fatalf("append after load lost points: %d then %d", st.Len(), st2.Len())
		}
	})
}

func FuzzSegmentOpen(f *testing.F) {
	// Seed with a well-formed segment, a truncated one, a wrong-magic one,
	// and garbage — recovery has to handle each without panicking.
	valid := logStream(1, encodedFrames(f, 2))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:logHeaderSize-3])
	f.Add(append(append([]byte(nil), valid...), make([]byte, 512)...)) // zero-filled tail
	f.Add(logStream(99, nil))                                          // header seq disagrees with the file name
	f.Add([]byte("not a segment at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogSegmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegments(dir, nil)
		if err != nil {
			return // classified as corrupt — fine, as long as it didn't panic
		}
		defer seg.Close()
		// Whatever survived recovery must load cleanly and append-ably.
		st, err := seg.Load()
		if err != nil {
			t.Fatalf("recovered store failed to load: %v", err)
		}
		if err := seg.Append(point(1000)); err != nil {
			t.Fatalf("recovered store rejected an append: %v", err)
		}
		if err := seg.Sync(); err != nil {
			t.Fatal(err)
		}
		st2, err := seg.Load()
		if err != nil {
			t.Fatalf("reload after append failed: %v", err)
		}
		if st2.Len() != st.Len()+1 {
			t.Fatalf("append after recovery lost points: %d then %d", st.Len(), st2.Len())
		}
	})
}
