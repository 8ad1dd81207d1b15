// Fixture: the sanctioned write paths (loaded as
// hpcadvisor/internal/storage).
package storage

import (
	"bytes"
	"io"
	"os"
	"sync"
)

// appendFrame is the framing helper itself: raw writes are its job.
func appendFrame(w io.Writer, payload []byte) (int64, error) {
	var hdr [8]byte
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(8 + len(payload)), nil
}

type SegmentStore struct {
	f *os.File
}

// ensureActive writes the segment header of a fresh WAL segment.
func (s *SegmentStore) ensureActive(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [16]byte
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	s.f = f
	return nil
}

// FrameLog.reset writes the frame log header: an allowed raw writer.
type FrameLog struct {
	mu sync.Mutex
	f  *os.File
}

func (l *FrameLog) reset() error {
	_, err := l.f.WriteString("MAGIC")
	return err
}

// buffers and hashes are not files: Write on them is never flagged.
func encode(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(payload)
	return buf.Bytes()
}

// publishSynced fsyncs the staged bytes before renaming them into place.
func publishSynced(tmp *os.File, path string) error {
	if err := tmp.Sync(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
