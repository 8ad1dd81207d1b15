package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hpcadvisor/internal/dataset"
)

// On-disk layout of a segment store directory:
//
//	wal-<seq>.seg       log segments; the highest seq is the active
//	                    write-ahead segment, all lower seqs are sealed
//	                    (immutable). seq is 16 hex digits, ascending.
//	snapshot-<seq>.seg  at most one compacted snapshot segment, holding
//	                    every point of log segments <= seq in canonical
//	                    sorted order. Written atomically (tmp + rename).
//
// Log segment file:
//
//	header  8B magic "HPALOG1\n" | u64le segment seq
//	frames  u32le payload len (1..maxFramePayload) | u32le CRC-32C(payload)
//	        | payload; payload = one dataset.Point as JSON
//
// Snapshot segment file, format v1 (still read; no longer written):
//
//	header  8B magic "HPASNAP1" | u64le folded-through seq | u64le count
//	frames  same framing; payload = u32le append index | point JSON,
//	        frames in canonical (SKU alias, input, nodes) order, stable
//	        by append index
//
// Snapshot segment file, format v2 ("HPASNAP2", what Compact writes): the
// columnar section layout documented in snapshotv2.go. Readers serve
// dataset snapshots directly over the sections, mapped where the build can
// mmap and read into the heap elsewhere.
//
// Durability: frames are buffered and fsynced every SyncEvery appends and
// on Sync/Close — a point is acknowledged when the covering fsync returns.
//
// Recovery: scanFrames is the one frame parser, for files and replication
// streams alike. A length of 0 is corrupt, not an empty frame: the CRC-32C
// of an empty payload is 0, so a zero-filled tail (the usual power-loss
// artifact) would otherwise parse as a run of valid frames. Each reader is
// a policy over the parser: sealed segments and v1 snapshots fail on
// anything but a clean end; the two appendable logs, the active (last)
// segment and the frame log, recover through recoverLog, the one torn-tail
// rule (keep the whole frames, truncate the rest, report the cut);
// ReadFrameLog stops at the first frame that is not whole; and
// LogStreamDecoder.Feed waits on a short frame and fails on a corrupt one.
// A snapshot header's point count is never trusted (parseSnapshotHeader).
const (
	logMagic        = "HPALOG1\n"
	snapMagic       = "HPASNAP1"
	logHeaderSize   = 16
	snapHeaderSize  = 24
	frameHeaderSize = 8
	// maxFramePayload bounds a single frame; a length prefix beyond it is
	// treated as a torn/corrupt frame, not an allocation request.
	maxFramePayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SegmentOptions tune a segment store.
type SegmentOptions struct {
	// SyncEvery batches fsyncs: the write-ahead segment is synced after
	// this many appends (and on Sync/Close). Default 32.
	SyncEvery int
	// MaxSegmentBytes seals the active segment once it grows past this
	// size and starts a new one. Default 8 MiB.
	MaxSegmentBytes int64
}

func (o *SegmentOptions) withDefaults() SegmentOptions {
	out := SegmentOptions{SyncEvery: 32, MaxSegmentBytes: 8 << 20}
	if o != nil {
		if o.SyncEvery > 0 {
			out.SyncEvery = o.SyncEvery
		}
		if o.MaxSegmentBytes > 0 {
			out.MaxSegmentBytes = o.MaxSegmentBytes
		}
	}
	return out
}

// SegmentStore is the dataset's durable store: a binary segment log with
// a compacted snapshot. It doubles as a dataset.Sink, so a loaded store
// writes every Add through it, and it is safe for concurrent use.
type SegmentStore struct {
	mu   sync.Mutex
	dir  string
	opts SegmentOptions

	// Active write-ahead segment; nil until the first append after open,
	// seal, or compaction (the directory itself is created lazily too).
	f           *os.File
	w           *bufio.Writer
	activeBytes int64
	nextSeq     uint64 // seq the next created segment gets
	pending     int    // appends since the last fsync

	// durableBytes is how much of the active segment is covered by an
	// fsync — the replication frontier. Only durable bytes are ever shipped
	// to followers: a follower can then never hold bytes a crashed-and-
	// restarted leader lost, because recovery keeps at least every fsynced
	// frame. It is always frame-aligned (appends write whole frames and
	// fsyncs cover them wholly).
	durableBytes int64

	walSeqs     []uint64 // live log segments, ascending; last may be active
	snapSeq     uint64   // snapshot's folded-through seq (0 = none)
	snapCount   int      // points covered by the snapshot
	snapVersion int      // snapshot format: 1 (frames) or 2 (columnar); 0 = none
	count       int      // total points (snapshot + all log segments)

	// mmapServed records whether the most recent Load served the snapshot
	// through the columnar constructor over a mapping (not read bytes, and
	// not the row rebuild).
	mmapServed bool

	// changed is closed and replaced whenever replication-visible state
	// advances (durability, seal, new segment, compaction); version counts
	// those changes so long-polling followers can detect ones they missed.
	changed chan struct{}
	version uint64

	recoveredBytes int64 // cut from the active segment's tail at open
	closed         bool
}

func segName(prefix string, seq uint64) string { return fmt.Sprintf("%s%016x.seg", prefix, seq) }
func walName(seq uint64) string                { return segName("wal-", seq) }
func snapName(seq uint64) string               { return segName("snapshot-", seq) }

// parseSeq returns the seq of a segment file name with the given prefix.
// Only the exact name segName renders for that seq counts: a stray
// "wal-1.seg" beside wal-0000000000000001.seg would otherwise read as a
// second copy of segment 1, and "snapshot-1.seg" would send the open to a
// canonical name that does not exist.
func parseSeq(name, prefix string) (uint64, bool) {
	hex, ok := strings.CutSuffix(strings.TrimPrefix(name, prefix), ".seg")
	seq, err := strconv.ParseUint(hex, 16, 64)
	if !ok || err != nil || name != segName(prefix, seq) {
		return 0, false
	}
	return seq, true
}

// OpenSegments opens (or lazily creates) the segment store at dir,
// recovering from a torn tail if the last run crashed mid-append.
func OpenSegments(dir string, opts *SegmentOptions) (*SegmentStore, error) {
	s := &SegmentStore{dir: dir, opts: opts.withDefaults(), nextSeq: 1, changed: make(chan struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return s, nil // empty store; directory created on first append
		}
		return nil, err
	}

	var snaps []uint64
	owned := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp") || strings.Contains(name, ".tmp-"):
			// Staging file from a crashed compaction: never renamed into
			// place, so it holds nothing acknowledged.
			os.Remove(filepath.Join(dir, name))
			owned++
		case strings.HasPrefix(name, "wal-"):
			if seq, ok := parseSeq(name, "wal-"); ok {
				s.walSeqs = append(s.walSeqs, seq)
				owned++
			}
		case strings.HasPrefix(name, "snapshot-"):
			if seq, ok := parseSeq(name, "snapshot-"); ok {
				snaps = append(snaps, seq)
				owned++
			}
		}
	}
	// A non-empty directory holding no segment files is some other data
	// (a state dir, a home dir...): opening it as an "empty store" would
	// hide the misconfiguration and scatter segments into it.
	if owned == 0 && len(entries) > 0 {
		return nil, fmt.Errorf("storage: %s is not a segment store (no wal-*.seg or snapshot-*.seg files among its %d entries)", dir, len(entries))
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(s.walSeqs, func(i, j int) bool { return s.walSeqs[i] < s.walSeqs[j] })

	// Keep the newest snapshot; older ones (crash between rename and
	// cleanup) are superseded.
	if len(snaps) > 0 {
		s.snapSeq = snaps[len(snaps)-1]
		for _, old := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(dir, snapName(old)))
		}
		path := filepath.Join(dir, snapName(s.snapSeq))
		prefix, size, err := readSnapshotPrefix(path)
		if err != nil {
			return nil, err
		}
		version, count, err := parseSnapshotHeader(prefix, size, path, s.snapSeq)
		if err != nil {
			return nil, err
		}
		s.snapVersion = version
		s.snapCount = count
		s.count = count
	}

	// Drop log segments the snapshot already folded (crash between the
	// snapshot rename and segment deletion), then count the live ones.
	live := s.walSeqs[:0]
	for _, seq := range s.walSeqs {
		if seq <= s.snapSeq {
			os.Remove(filepath.Join(dir, walName(seq)))
			continue
		}
		live = append(live, seq)
	}
	s.walSeqs = live
	s.nextSeq = s.snapSeq + 1
	if n := len(s.walSeqs); n > 0 {
		s.nextSeq = s.walSeqs[n-1] + 1
	}

	for i, seq := range s.walSeqs {
		path := filepath.Join(dir, walName(seq))
		if i < len(s.walSeqs)-1 {
			// Sealed segment: must be whole.
			n, err := readLogSegment(path, seq, func([]byte) error { return nil })
			if err != nil {
				return nil, err
			}
			s.count += n
			continue
		}
		// Last segment: the crash frontier, recovered by the torn-tail rule.
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
		if err != nil {
			return nil, err
		}
		frames := 0
		kept, cut, err := recoverLog(f, logHeaderSize,
			func(hdr []byte) error { return checkLogHeader(hdr, seq) },
			func([]byte) { frames++ })
		s.recoveredBytes = cut
		if errors.Is(err, errBadHeader) {
			// Torn before its first fsync (garbage or zeros for a header):
			// nothing in it was acknowledged, so drop it and recreate the
			// seq on the next append, unlike the same damage when sealed.
			f.Close()
			os.Remove(path)
			s.walSeqs = s.walSeqs[:len(s.walSeqs)-1]
			s.nextSeq = seq
			continue
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		s.count += frames
		if kept >= s.opts.MaxSegmentBytes {
			// Full: leave it sealed; the next append starts a fresh segment.
			f.Close()
			continue
		}
		// Keep it open for appending. Every surviving frame is treated as
		// acknowledged (the recovery contract), so the whole kept prefix is
		// replicable.
		s.f = f
		s.w = bufio.NewWriter(f)
		s.activeBytes = kept
		s.durableBytes = kept
		s.nextSeq = seq + 1
	}
	return s, nil
}

// ensureActive opens the active segment, creating the directory and the
// next segment file on first use.
func (s *SegmentStore) ensureActive() error {
	if s.f != nil {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.dir, walName(s.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [logHeaderSize]byte
	copy(hdr[:8], logMagic)
	binary.LittleEndian.PutUint64(hdr[8:], s.nextSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.activeBytes = logHeaderSize
	// Nothing in the new segment (header included) is durable until the
	// first fsync; replication serves none of it yet.
	s.durableBytes = 0
	s.walSeqs = append(s.walSeqs, s.nextSeq)
	s.nextSeq++
	s.notifyChange()
	return nil
}

// notifyChange wakes replication watchers: the manifest or the durable
// frontier moved. Callers hold s.mu.
func (s *SegmentStore) notifyChange() {
	s.version++
	close(s.changed)
	s.changed = make(chan struct{})
}

// Watch returns a channel closed at the next replication-visible change
// (durability advance, seal, new segment, compaction). Callers re-check
// state after the channel closes; a fresh channel must be obtained per
// wait.
func (s *SegmentStore) Watch() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// appendFrame writes one frame — the single encoding shared by log and
// snapshot segments.
func appendFrame(w io.Writer, payload []byte) (int64, error) {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(frameHeaderSize + len(payload)), nil
}

// Append records one point at the tail of the write-ahead segment. Fsyncs
// are batched (SegmentOptions.SyncEvery): the point is durable — and only
// then acknowledged — once the covering Sync returns.
func (s *SegmentStore) Append(p dataset.Point) error {
	payload, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if len(payload) > maxFramePayload {
		// The read path rejects frames beyond this bound; never acknowledge
		// a point that a reopen would then refuse (or truncate).
		return fmt.Errorf("storage: point %s encodes to %d bytes, over the %d frame limit",
			p.ScenarioID, len(payload), maxFramePayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: segment store %s is closed", s.dir)
	}
	if err := s.ensureActive(); err != nil {
		return err
	}
	n, err := appendFrame(s.w, payload)
	if err != nil {
		return err
	}
	s.activeBytes += n
	s.count++
	s.pending++
	if s.pending >= s.opts.SyncEvery {
		if err := s.flushSync(); err != nil {
			return err
		}
	}
	if s.activeBytes >= s.opts.MaxSegmentBytes {
		return s.seal()
	}
	return nil
}

// flushSync drains the write buffer and fsyncs the active segment. Callers
// hold s.mu.
func (s *SegmentStore) flushSync() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.pending = 0
	if s.activeBytes > s.durableBytes {
		s.durableBytes = s.activeBytes
		s.notifyChange()
	}
	return nil
}

// seal makes the active segment immutable; the next append starts a new
// one. Callers hold s.mu.
func (s *SegmentStore) seal() error {
	if s.f == nil {
		return nil
	}
	if err := s.flushSync(); err != nil {
		return err
	}
	err := s.f.Close()
	s.f, s.w, s.activeBytes, s.durableBytes = nil, nil, 0, 0
	s.notifyChange()
	return err
}

// Sync makes every appended point durable.
func (s *SegmentStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushSync()
}

// Close seals the active segment and releases the store.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.seal()
}

// Load reads the dataset in append order: the snapshot segment's points,
// then each live log segment. It has two rungs:
//
//  1. A v2 snapshot is served by the columnar constructor over the file's
//     bytes, mapped on Linux and read into the heap elsewhere. Every
//     section is CRC-verified first, and rows decode lazily. The WAL tail
//     becomes the store's delta over that base, so it decodes and copies
//     no snapshot row. Any CRC, bounds or validation failure drops to 2.
//  2. Anything else (a v1 snapshot, or a v2 file rung 1 rejects) decodes
//     the rows in append order and builds an ordinary store, the way live
//     collection does. Damaged rows are a Load error.
//
// Either way the WAL tail is appended on top, so both rungs return stores
// with identical contents and generations. Load writes no files.
func (s *SegmentStore) Load() (*dataset.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, mapped, err := s.loadLocked()
	s.mmapServed = err == nil && mapped && mmapSupported
	return st, err
}

// loadLocked runs Load's rungs and reports whether rung 1 served the
// snapshot. Callers hold s.mu.
func (s *SegmentStore) loadLocked() (st *dataset.Store, mapped bool, err error) {
	if s.f != nil {
		if err := s.w.Flush(); err != nil {
			return nil, false, err
		}
	}
	if s.snapVersion == 2 {
		// On failure fall through: the row decode surfaces its own (more
		// precise) error if the rows themselves are damaged.
		st, err = loadMappedSnapshot(filepath.Join(s.dir, snapName(s.snapSeq)), s.snapSeq)
		mapped = err == nil
	}
	if !mapped {
		var points []dataset.Point
		if s.snapSeq > 0 {
			if points, err = readSnapshotSegment(filepath.Join(s.dir, snapName(s.snapSeq)), s.snapSeq); err != nil {
				return nil, false, err
			}
		}
		st = dataset.NewStore()
		st.AddAll(points)
	}
	for _, seq := range s.walSeqs {
		_, err := readLogSegment(filepath.Join(s.dir, walName(seq)), seq, func(payload []byte) error {
			var p dataset.Point
			if err := json.Unmarshal(payload, &p); err != nil {
				return fmt.Errorf("decoding point: %w", err)
			}
			st.Add(p)
			return nil
		})
		if err != nil {
			return nil, false, err
		}
	}
	return st, mapped, nil
}

// Compact folds the snapshot and every log segment into a new sorted
// snapshot segment, written atomically, then deletes the folded files. It
// loads the store through Load's rungs and writes the store's image: the
// WAL tail merges into the old snapshot's rows by rank, so no row already
// in the snapshot is decoded, re-sorted or re-marshalled. The log is empty
// afterwards; the next append opens a fresh write-ahead segment.
// Compaction only changes the on-disk layout — already-loaded stores and
// their snapshots are untouched.
func (s *SegmentStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: segment store %s is closed", s.dir)
	}
	if len(s.walSeqs) == 0 {
		return nil // nothing beyond the snapshot
	}
	if err := s.seal(); err != nil {
		return err
	}
	foldThrough := s.walSeqs[len(s.walSeqs)-1]
	if s.count == s.snapCount {
		// Only empty log segments: delete them, keep the snapshot as is.
		for _, seq := range s.walSeqs {
			os.Remove(filepath.Join(s.dir, walName(seq)))
		}
		s.walSeqs = nil
		s.nextSeq = foldThrough + 1
		s.notifyChange()
		return nil
	}
	st, _, err := s.loadLocked()
	if err != nil {
		return err
	}
	img, err := st.Image()
	if err != nil {
		return err
	}
	if err := writeSnapshotSegmentV2(filepath.Join(s.dir, snapName(foldThrough)), foldThrough, img); err != nil {
		return err
	}

	// The new snapshot is durable; retire what it folded. A v1 snapshot
	// folded here compacts forward: old state dirs upgrade to v2 on their
	// first compaction.
	if s.snapSeq > 0 && s.snapSeq != foldThrough {
		os.Remove(filepath.Join(s.dir, snapName(s.snapSeq)))
	}
	for _, seq := range s.walSeqs {
		os.Remove(filepath.Join(s.dir, walName(seq)))
	}
	s.snapSeq = foldThrough
	s.snapVersion = 2
	s.snapCount = img.Count
	s.walSeqs = nil
	s.nextSeq = foldThrough + 1
	s.notifyChange()
	return nil
}

// Info describes the on-disk state.
func (s *SegmentStore) Info() (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := Info{
		Format:         "segment",
		Path:           s.dir,
		Points:         s.count,
		Segments:       len(s.walSeqs),
		SnapshotPoints: s.snapCount,
		SnapshotFormat: s.snapVersion,
		MmapServed:     s.mmapServed,
		Recovered:      s.recoveredBytes > 0,
		RecoveredBytes: s.recoveredBytes,
	}
	if s.snapVersion == 2 {
		if fp, err := readSnapshotFootprintV2(filepath.Join(s.dir, snapName(s.snapSeq))); err == nil {
			info.SymbolTableBytes = fp.symtabBytes
			info.ColumnBytes = fp.columnBytes
			info.FailedBitmapBytes = fp.failedBytes
			info.RowDataBytes = fp.rowDataBytes
		}
	}
	if s.f != nil {
		if err := s.w.Flush(); err != nil {
			return info, err
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			info.Bytes += fi.Size()
		}
	}
	return info, nil
}

//
// Segment file IO
//

// errShortFrame and errCorruptFrame are why scanFrames stops before the
// end of its input: the bytes end inside a frame, or the frame is corrupt.
// A log header that fails its check is errBadHeader.
var (
	errShortFrame   = errors.New("short frame")
	errCorruptFrame = errors.New("corrupt frame")
	errBadHeader    = errors.New("bad header")
)

// scanFrames is the one frame parser. It hands fn the payload (aliasing b)
// of each whole frame of b in order and returns the length of those
// frames. It stops with errShortFrame where the bytes end inside a frame,
// with errCorruptFrame at a length of 0 or over maxFramePayload or a CRC
// mismatch, or with fn's first error (that frame counts as scanned).
func scanFrames(b []byte, fn func(payload []byte) error) (n int, err error) {
	for n < len(b) {
		frame := b[n:]
		if len(frame) < frameHeaderSize {
			return n, errShortFrame
		}
		size := binary.LittleEndian.Uint32(frame)
		if size == 0 || size > maxFramePayload {
			return n, fmt.Errorf("%w: implausible length %d", errCorruptFrame, size)
		}
		end := frameHeaderSize + int(size)
		if len(frame) < end {
			return n, errShortFrame
		}
		payload := frame[frameHeaderSize:end]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[4:]) {
			return n, fmt.Errorf("%w: payload CRC mismatch", errCorruptFrame)
		}
		n += end
		if err := fn(payload); err != nil {
			return n, err
		}
	}
	return n, nil
}

// recoverLog is the torn-tail rule of both appendable logs. It reads f
// whole, checks its hdrSize-byte header, hands fn each whole frame after
// it, truncates f after the last one, and leaves f positioned there,
// returning the bytes kept and cut. If the header check fails (a file
// shorter than its header fails with errBadHeader), it returns that error
// with cut set to the file size and nothing truncated: each log decides
// what a bad header means.
func recoverLog(f *os.File, hdrSize int, checkHeader func(hdr []byte) error, fn func(payload []byte)) (kept, cut int64, err error) {
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return 0, 0, err
	}
	if len(data) < hdrSize {
		return 0, int64(len(data)), errBadHeader
	}
	if err := checkHeader(data[:hdrSize]); err != nil {
		return 0, int64(len(data)), err
	}
	n, _ := scanFrames(data[hdrSize:], func(payload []byte) error { fn(payload); return nil })
	kept = int64(hdrSize + n)
	if cut = int64(len(data)) - kept; cut > 0 {
		if err := f.Truncate(kept); err != nil {
			return 0, 0, err
		}
	}
	if _, err := f.Seek(kept, io.SeekStart); err != nil {
		return 0, 0, err
	}
	return kept, cut, nil
}

// checkLogHeader checks a log segment header against the segment's seq.
func checkLogHeader(hdr []byte, seq uint64) error {
	if len(hdr) < logHeaderSize {
		return fmt.Errorf("%w: %d bytes", errBadHeader, len(hdr))
	}
	if string(hdr[:8]) != logMagic {
		return fmt.Errorf("%w: magic %q", errBadHeader, hdr[:8])
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != seq {
		return fmt.Errorf("%w: seq %d, want %d", errBadHeader, got, seq)
	}
	return nil
}

// readLogSegment strictly reads a sealed log segment, invoking fn per
// frame payload, and returns the frame count. Anything but a clean end is
// an error: sealed segments are immutable and were fsynced whole.
func readLogSegment(path string, seq uint64, fn func(payload []byte) error) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if err := checkLogHeader(data, seq); err != nil {
		return 0, fmt.Errorf("storage: %s: %w", path, err)
	}
	frames := 0
	_, err = scanFrames(data[logHeaderSize:], func(payload []byte) error {
		if err := fn(payload); err != nil {
			return err
		}
		frames++
		return nil
	})
	if err != nil {
		return frames, fmt.Errorf("storage: %s: frame %d: %w", path, frames, err)
	}
	return frames, nil
}

// readSnapshotPrefix reads as much of a snapshot segment as a header parse
// needs (a v2 header and the largest section table) and the file's size.
func readSnapshotPrefix(path string) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	prefix := make([]byte, v2HeaderSize+v2MaxSections*v2SecDescSize)
	n, err := io.ReadFull(f, prefix)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, 0, err
	}
	return prefix[:n], fi.Size(), nil
}

// parseSnapshotHeader parses the header at the start of b, the snapshot
// segment seq of size bytes, sniffing the format version from the magic.
// The point count is never trusted: v2 checks it with the header CRC
// (parseV2Table), and a v1 count must fit in size bytes, each frame taking
// at least a frame header and a 4-byte append index.
func parseSnapshotHeader(b []byte, size int64, path string, seq uint64) (version, count int, err error) {
	var fold uint64
	switch {
	case len(b) >= 8 && string(b[:8]) == snapMagicV2:
		version = 2
		if _, fold, count, err = parseV2Table(b, path); err != nil {
			return 0, 0, err
		}
	case len(b) < snapHeaderSize:
		return 0, 0, fmt.Errorf("storage: %s: short header", path)
	case string(b[:8]) != snapMagic:
		return 0, 0, fmt.Errorf("storage: %s: bad magic %q", path, b[:8])
	default:
		version, fold = 1, binary.LittleEndian.Uint64(b[8:])
		cnt := binary.LittleEndian.Uint64(b[16:])
		if cnt > uint64(size-snapHeaderSize)/(frameHeaderSize+4) {
			return 0, 0, fmt.Errorf("storage: %s: header claims %d points, more than its %d bytes hold", path, cnt, size)
		}
		count = int(cnt)
	}
	if fold != seq {
		return 0, 0, fmt.Errorf("storage: %s: header seq %d does not match name", path, fold)
	}
	return version, count, nil
}

// readSnapshotSegment reads a snapshot segment of either format: points
// come back in append order (scattered via the per-row append index). The
// index set must be exactly 0..count-1.
func readSnapshotSegment(path string, seq uint64) ([]dataset.Point, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	version, count, err := parseSnapshotHeader(data, int64(len(data)), path, seq)
	if err != nil {
		return nil, err
	}
	if version == 2 {
		return readRowsV2(data, path)
	}
	points := make([]dataset.Point, count)
	seen := make([]bool, count)
	i := 0
	_, err = scanFrames(data[snapHeaderSize:], func(payload []byte) error {
		if i == count {
			return errors.New("trailing data after the last point")
		}
		if len(payload) < 4 {
			return errors.New("payload too short")
		}
		idx := binary.LittleEndian.Uint32(payload[:4])
		if int(idx) >= count || seen[idx] {
			return fmt.Errorf("bad append index %d", idx)
		}
		seen[idx] = true
		if err := json.Unmarshal(payload[4:], &points[idx]); err != nil {
			return fmt.Errorf("decoding point: %w", err)
		}
		i++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: %s: frame %d: %w", path, i, err)
	}
	if i < count {
		return nil, fmt.Errorf("storage: %s: %d frames, header claims %d points", path, i, count)
	}
	return points, nil
}
