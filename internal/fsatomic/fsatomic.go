// Package fsatomic provides crash-safe file replacement: WriteFile stages
// the new contents in a temporary file in the destination directory, syncs
// it, and renames it over the target. A crash at any point leaves either
// the old complete file or the new complete file — never a truncated or
// interleaved one. State files (JSON Lines dataset exports, scenario task
// lists, deployment records, storage snapshot segments) all go through
// this path.
package fsatomic

import (
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data. The temporary file is
// created in path's directory so the final rename never crosses a
// filesystem boundary.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// On any failure, remove the staging file; the target is untouched.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry is
// durable. Filesystems that do not support directory fsync make it a no-op.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best effort: the rename itself already happened
	}
	defer d.Close()
	_ = d.Sync() // some platforms/filesystems reject fsync on directories
	return nil
}
