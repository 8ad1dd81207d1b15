package storage

// Replication export surface of the segment store. A leader exposes three
// read-only views a follower mirrors byte-for-byte:
//
//   - Manifest: the current layout — snapshot segment, log segments with
//     their replicable sizes, and the durable log position in points.
//   - ReadSegmentAt: the bytes of one log segment from a cursor offset up
//     to the durable frontier. Only fsynced bytes are served, so a follower
//     can never hold bytes a crashed-and-restarted leader lost; byte ranges
//     below the durable frontier are immutable, so a cursor (seq, offset)
//     pair is stable across leader restarts.
//   - SnapshotPayload: the compacted snapshot segment, whole. Snapshot
//     files are immutable once published, so shipping the raw bytes makes
//     the follower's compacted state byte-identical to the leader's.
//
// Watch + Manifest.Version let a follower long-poll instead of spinning:
// every replication-visible change (durability advance, seal, new segment,
// compaction) closes the watch channel and bumps the version.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hpcadvisor/internal/dataset"
)

// LogSegmentName and SnapshotSegmentName expose the on-disk file names, so
// a follower mirrors the leader's files under the exact names this package
// recovers and loads from.
func LogSegmentName(seq uint64) string      { return walName(seq) }
func SnapshotSegmentName(seq uint64) string { return snapName(seq) }

// SegmentKind distinguishes the two segment file kinds of a store
// directory.
type SegmentKind int

const (
	SegmentLog SegmentKind = iota + 1
	SegmentSnapshot
)

// ParseSegmentName decodes a segment file name into its seq and kind;
// ok is false for any other directory entry.
func ParseSegmentName(name string) (seq uint64, kind SegmentKind, ok bool) {
	if seq, ok := parseSeq(name, "wal-"); ok {
		return seq, SegmentLog, true
	}
	if seq, ok := parseSeq(name, "snapshot-"); ok {
		return seq, SegmentSnapshot, true
	}
	return 0, 0, false
}

// ErrUnknownSegment marks a replication read naming a segment the store no
// longer has — typically retired by compaction. Followers respond by
// re-reading the manifest (and re-bootstrapping if their cursor is gone).
var ErrUnknownSegment = errors.New("storage: unknown segment")

// ErrBadOffset marks a replication read from beyond the durable frontier —
// a follower claiming bytes the leader never acknowledged, which indicates
// the follower's state belongs to a different log and needs a re-bootstrap.
var ErrBadOffset = errors.New("storage: segment offset beyond durable frontier")

// SegmentInfo describes one log segment's replicable state.
type SegmentInfo struct {
	Seq uint64 `json:"seq"`
	// Size is the replicable byte length: the durable frontier for the
	// active segment, the full file size for sealed ones.
	Size   int64 `json:"size"`
	Sealed bool  `json:"sealed"`
}

// SnapshotInfo describes the compacted snapshot segment.
type SnapshotInfo struct {
	Seq   uint64 `json:"seq"`
	Count int    `json:"count"`
	Size  int64  `json:"size"`
}

// Manifest is the store layout a follower reconciles against.
type Manifest struct {
	// Version counts replication-visible changes in this process; it is not
	// persisted. Followers use it only to long-poll for "anything changed
	// since version V".
	Version uint64 `json:"version"`
	// Points is the durable log position: points covered by an fsync. The
	// in-memory count can run ahead of it between batched syncs.
	Points   int           `json:"points"`
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
	// Segments lists live log segments ascending by seq; at most the last
	// one is unsealed.
	Segments []SegmentInfo `json:"segments"`
}

// Manifest returns the store's current replicable layout.
func (s *SegmentStore) Manifest() (Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Manifest{Version: s.version, Points: s.count - s.pending, Segments: []SegmentInfo{}}
	if s.snapSeq > 0 {
		fi, err := os.Stat(filepath.Join(s.dir, snapName(s.snapSeq)))
		if err != nil {
			return Manifest{}, err
		}
		m.Snapshot = &SnapshotInfo{Seq: s.snapSeq, Count: s.snapCount, Size: fi.Size()}
	}
	for i, seq := range s.walSeqs {
		if s.f != nil && i == len(s.walSeqs)-1 {
			m.Segments = append(m.Segments, SegmentInfo{Seq: seq, Size: s.durableBytes})
			continue
		}
		fi, err := os.Stat(filepath.Join(s.dir, walName(seq)))
		if err != nil {
			return Manifest{}, err
		}
		m.Segments = append(m.Segments, SegmentInfo{Seq: seq, Size: fi.Size(), Sealed: true})
	}
	return m, nil
}

// ReadSegmentAt returns the replicable bytes of log segment seq starting at
// byte offset from, up to the durable frontier, plus the segment's current
// info. An empty slice with a nil error means the follower is caught up on
// this segment (tail again after Watch, or move on if Sealed and
// from == Size). The durable frontier is always frame-aligned, so returned
// ranges never split a frame.
func (s *SegmentStore) ReadSegmentAt(seq uint64, from int64) ([]byte, SegmentInfo, error) {
	s.mu.Lock()
	info := SegmentInfo{Seq: seq, Sealed: true}
	found := false
	for i, q := range s.walSeqs {
		if q != seq {
			continue
		}
		found = true
		if s.f != nil && i == len(s.walSeqs)-1 {
			info.Sealed = false
			info.Size = s.durableBytes
		}
		break
	}
	s.mu.Unlock()
	if !found {
		return nil, SegmentInfo{}, ErrUnknownSegment
	}
	path := filepath.Join(s.dir, walName(seq))
	if info.Sealed {
		fi, err := os.Stat(path)
		if err != nil {
			if os.IsNotExist(err) {
				// Retired by a concurrent compaction.
				return nil, SegmentInfo{}, ErrUnknownSegment
			}
			return nil, SegmentInfo{}, err
		}
		info.Size = fi.Size()
	}
	if from < 0 || from > info.Size {
		return nil, info, fmt.Errorf("%w: offset %d, durable size %d of %s", ErrBadOffset, from, info.Size, walName(seq))
	}
	if from == info.Size {
		return nil, info, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, SegmentInfo{}, ErrUnknownSegment
		}
		return nil, SegmentInfo{}, err
	}
	defer f.Close()
	buf := make([]byte, info.Size-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, info, fmt.Errorf("storage: reading %s [%d:%d]: %w", walName(seq), from, info.Size, err)
	}
	return buf, info, nil
}

// SnapshotPayload returns the raw bytes of the snapshot segment seq, whole.
// Only the current snapshot is servable; an older (replaced) or unknown seq
// is ErrUnknownSegment, telling the follower to re-read the manifest.
func (s *SegmentStore) SnapshotPayload(seq uint64) ([]byte, error) {
	s.mu.Lock()
	cur := s.snapSeq
	s.mu.Unlock()
	if seq == 0 || seq != cur {
		return nil, ErrUnknownSegment
	}
	data, err := os.ReadFile(filepath.Join(s.dir, snapName(seq)))
	if os.IsNotExist(err) {
		return nil, ErrUnknownSegment
	}
	return data, err
}

// LogStreamDecoder incrementally decodes the byte stream of one log
// segment — header first, then frames — as chunks arrive from replication.
// Chunks may split frames arbitrarily: a short frame (one the bytes so far
// end inside) waits for the rest. A corrupt frame, a bad header or a
// payload that is not a point is a permanent error: replicated ranges come
// from below the leader's durable frontier, where torn frames cannot
// occur, so damage means the stream is not the segment it claims to be.
type LogStreamDecoder struct {
	seq        uint64
	buf        []byte
	headerDone bool
	failed     error
}

// NewLogStreamDecoder decodes the stream of log segment seq from offset 0.
func NewLogStreamDecoder(seq uint64) *LogStreamDecoder {
	return &LogStreamDecoder{seq: seq}
}

// Feed consumes the next chunk, invoking emit once per completed point in
// order. A decode error is sticky; emit errors abort the current call and
// are returned (the same bytes are not re-emitted).
func (d *LogStreamDecoder) Feed(data []byte, emit func(p dataset.Point) error) error {
	if d.failed != nil {
		return d.failed
	}
	d.buf = append(d.buf, data...)
	if !d.headerDone {
		if len(d.buf) < logHeaderSize {
			return nil
		}
		if err := checkLogHeader(d.buf, d.seq); err != nil {
			return d.fail(err)
		}
		d.buf = d.buf[logHeaderSize:]
		d.headerDone = true
	}
	n, err := scanFrames(d.buf, func(payload []byte) error {
		var p dataset.Point
		if err := json.Unmarshal(payload, &p); err != nil {
			return d.fail(fmt.Errorf("decoding point: %w", err))
		}
		return emit(p)
	})
	d.buf = d.buf[n:]
	switch {
	case errors.Is(err, errShortFrame):
		return nil // wait for the rest of the frame
	case errors.Is(err, errCorruptFrame):
		return d.fail(err)
	}
	return err
}

// fail makes err the decoder's sticky error.
func (d *LogStreamDecoder) fail(err error) error {
	d.failed = fmt.Errorf("storage: log stream %d: %w", d.seq, err)
	return d.failed
}
