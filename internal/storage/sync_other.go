//go:build !linux

package storage

import "os"

// fdatasync falls back to a full fsync where the platform has no cheaper
// data-only flush.
func fdatasync(f *os.File) error { return f.Sync() }

// preallocate is a no-op: the caller's zero-fill allocates the blocks.
func preallocate(*os.File, int64) error { return nil }
