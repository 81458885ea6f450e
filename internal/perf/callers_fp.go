//go:build amd64 || arm64

package perf

import "unsafe"

// getfp returns its caller's frame pointer (fp_$GOARCH.s).
func getfp() unsafe.Pointer

// Callers fills pcs with the return PCs of the calling goroutine's
// stack and returns how many it wrote. skip counts frames above the
// caller: skip 0 starts at the caller of Callers, as
// runtime.Callers(1, pcs) would. Unlike runtime.Callers it walks
// physical frames only, one PC per frame whatever was inlined into it;
// Resolve expands those PCs to the same frames.
//
// The walk follows the frame-pointer chain: each frame's saved frame
// pointer is the word at its frame pointer, its return PC the word
// above. It is the runtime's own fpTracebackPCs, which its execution
// tracer unwinds by. It stops at the goroutine's root, whose saved
// frame pointer is nil, at a chain that does not climb the stack, or
// when pcs is full. The function is a leaf and nosplit, so it holds no
// safe point: neither preemption nor a stack move can come between
// loading a frame pointer and following it. Holding it as an
// unsafe.Pointer keeps it valid even where the race detector's
// instrumentation adds calls.
//
//go:noinline
//go:nosplit
func Callers(skip int, pcs []uintptr) int {
	fp := getfp()
	n := 0
	for fp != nil && n < len(pcs) {
		if skip > 0 {
			skip--
		} else {
			pcs[n] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(fp)))
			n++
		}
		next := *(*unsafe.Pointer)(fp)
		if uintptr(next) <= uintptr(fp) {
			break
		}
		fp = next
	}
	return n
}
