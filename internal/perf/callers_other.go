//go:build !amd64 && !arm64

package perf

import "runtime"

// Callers fills pcs with the return PCs of the calling goroutine's
// stack and returns how many it wrote. skip counts frames above the
// caller: skip 0 starts at the caller of Callers. Go keeps frame
// pointers only on amd64 and arm64; elsewhere the walk is
// runtime.Callers'.
//
//go:noinline
func Callers(skip int, pcs []uintptr) int {
	return runtime.Callers(skip+2, pcs)
}
