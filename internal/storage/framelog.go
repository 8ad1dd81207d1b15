// framelog.go is a small append-only record log on the same CRC-framed
// encoding as the WAL segments: an 8-byte magic header followed by
// length-prefixed CRC-32C frames, one opaque, non-empty payload per frame.
// The collector's sweep journal rides on it. Unlike the segment store it
// is a single file, and every Append is fsynced before it returns (journal
// records are tiny and rare next to datapoint writes). It recovers through
// the same routine as the active WAL segment (recoverLog): the open keeps
// every whole frame and truncates the rest, so only an unacknowledged
// trailing write can be lost.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// frameLogMagic distinguishes a frame log from a WAL segment ("HPALOG1\n")
// so neither reader will silently consume the other's file.
const frameLogMagic = "HPAJNL1\n"

const frameLogHeaderSize = len(frameLogMagic)

// checkFrameLogHeader checks a frame log's magic. A WAL segment's magic is
// an error of its own rather than a bad header, so the open refuses the
// file instead of resetting it.
func checkFrameLogHeader(hdr []byte) error {
	switch string(hdr[:frameLogHeaderSize]) {
	case frameLogMagic:
		return nil
	case logMagic:
		return errors.New("a WAL segment, not a frame log")
	}
	return fmt.Errorf("%w: frame log magic %q", errBadHeader, hdr[:frameLogHeaderSize])
}

// FrameLog is an append-only, fsync-per-record, CRC-framed record log.
type FrameLog struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	frames int
	cut    int64
	closed bool
}

// OpenFrameLog opens (creating if absent) the frame log at path, recovers
// any torn tail, and returns the surviving payloads in append order. A
// file shorter than the header, or whose header was torn mid-write, is
// reset to an empty log; a WAL segment is an error rather than something
// to clobber.
func OpenFrameLog(path string) (*FrameLog, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l := &FrameLog{path: path, f: f}
	var payloads [][]byte
	_, l.cut, err = recoverLog(f, frameLogHeaderSize, checkFrameLogHeader,
		func(payload []byte) { payloads = append(payloads, payload) })
	if errors.Is(err, errBadHeader) {
		// New file, or a crash before the header fsync: nothing was ever
		// acknowledged, so start fresh.
		err = l.reset()
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	l.frames = len(payloads)
	return l, payloads, nil
}

// reset truncates the log to a fresh, fsynced header.
func (l *FrameLog) reset() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := l.f.WriteString(frameLogMagic); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.frames = 0
	return nil
}

// Append frames one payload and fsyncs before returning: once Append
// returns nil the record survives a crash.
func (l *FrameLog) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFramePayload {
		// The reader refuses such frames; never acknowledge one.
		return fmt.Errorf("storage: frame log record of %d bytes is outside the 1..%d frame limit",
			len(payload), maxFramePayload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("storage: frame log %s is closed", l.path)
	}
	if _, err := appendFrame(l.f, payload); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.frames++
	return nil
}

// Reset discards every record, leaving an empty (but valid) log.
func (l *FrameLog) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("storage: frame log %s is closed", l.path)
	}
	return l.reset()
}

// Frames reports how many records the log holds.
func (l *FrameLog) Frames() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames
}

// RecoveredCut reports how many torn tail bytes the open truncated.
func (l *FrameLog) RecoveredCut() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cut
}

// Close releases the file handle. Append after Close errors.
func (l *FrameLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// ReadFrameLog reads the payloads of the frame log at path without
// truncating anything — safe to call on a log another process is
// appending to; the first frame that is not whole (a torn or in-flight
// tail) ends the scan. A missing file reads as an empty log.
func ReadFrameLog(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < frameLogHeaderSize {
		return nil, nil
	}
	if err := checkFrameLogHeader(data); err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	var payloads [][]byte
	scanFrames(data[frameLogHeaderSize:], func(payload []byte) error {
		payloads = append(payloads, payload)
		return nil
	})
	return payloads, nil
}
