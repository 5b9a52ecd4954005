package checkpoint

import (
	"os"
	"syscall"
)

// preallocate reserves n bytes of disk for the segment f without
// changing its size (FALLOC_FL_KEEP_SIZE). Appends then land in one
// extent allocated up front, instead of a new block allocated at every
// fsync and interleaved with the other files being appended to, which
// grows the file's extent tree and the metadata every later fsync
// commits. It is an optimisation only: failure is ignored.
func preallocate(f *os.File, n int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		syscall.Fallocate(int(fd), 1 /* FALLOC_FL_KEEP_SIZE */, 0, n)
	})
}
