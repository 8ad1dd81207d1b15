//go:build !linux || nommap

package storage

import "os"

// mmapSupported: this build reads snapshot files into the heap instead of
// mapping them; the columnar constructor serves the bytes all the same.
const mmapSupported = false

// mmapRegion holds a snapshot file's bytes read into the heap, so the
// columnar load path is the same on every build.
type mmapRegion struct {
	data []byte
}

// mapFile reads path whole: the portable stand-in for a read-only mapping.
func mapFile(path string) (*mmapRegion, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &mmapRegion{data: data}, nil
}

func (r *mmapRegion) unmap() {}
