//go:build linux && !nommap

package storage

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
)

// mmapSupported reports whether this build maps snapshot files rather than
// reading them into the heap. The nommap tag forces the read-bytes form of
// the same columnar load path on any platform.
const mmapSupported = true

// mmapRegion owns one read-only mapping of a snapshot segment. The
// dataset.Snapshot built over it pins the region through Columnar.Ref, and
// a finalizer unmaps once the last snapshot referencing it is collected —
// so derived slices can never outlive the mapping they alias.
type mmapRegion struct {
	data []byte
	once sync.Once
}

// mapFile maps path read-only. This is the only place in the repo allowed
// to call syscall.Mmap (the walhygiene analyzer enforces it), so mapping
// lifetimes are always finalizer-managed through mmapRegion.
func mapFile(path string) (*mmapRegion, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || size > 1<<40 {
		return nil, fmt.Errorf("storage: %s: unmappable size %d", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("storage: mmap %s: %w", path, err)
	}
	r := &mmapRegion{data: data}
	runtime.SetFinalizer(r, (*mmapRegion).unmap)
	return r, nil
}

// unmap releases the mapping (idempotent). Reads of region slices after
// unmap would fault, which is why only the finalizer — or a load-failure
// path that built no snapshot — ever calls it.
func (r *mmapRegion) unmap() {
	r.once.Do(func() {
		if r.data != nil {
			_ = syscall.Munmap(r.data)
			r.data = nil
		}
		runtime.SetFinalizer(r, nil)
	})
}
