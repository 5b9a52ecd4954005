//go:build !linux

package checkpoint

import "os"

// preallocate is a no-op where fallocate is not available; see the
// Linux version.
func preallocate(f *os.File, n int64) {}
