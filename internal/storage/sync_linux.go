//go:build linux

package storage

import (
	"os"
	"syscall"
)

// fdatasync makes f's data durable without forcing a journal commit for
// metadata that retrieval does not depend on (mtime). On a preallocated,
// already-written file that is the whole point: a steady-state WAL sync
// becomes a pure data flush.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}

// preallocate reserves size bytes of (ideally contiguous) blocks for f
// before the zero-fill writes them, so a full disk fails here — in the
// background preparer — rather than on the append path. Filesystems
// without fallocate just get the plain zero-fill.
func preallocate(f *os.File, size int64) error {
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EOPNOTSUPP, syscall.ENOSYS:
			return nil
		}
		return os.NewSyscallError("fallocate", err)
	}
}
