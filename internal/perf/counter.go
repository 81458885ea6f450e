package perf

import "time"

// Counter is a hardware-based time counter: the prototype tool of the
// paper stores "a sample of a hardware-based time counter" in each
// event callback. On this substrate the counter is the monotonic clock
// read, in nanoseconds; it is cheap (no syscall on Linux vDSO) and
// strictly non-decreasing.

var epoch = time.Now()

// Cycles returns the current counter value in nanoseconds since
// process-local epoch.
func Cycles() int64 { return int64(time.Since(epoch)) }

// Time runs fn and returns its wall-clock duration on the counter.
func Time(fn func()) time.Duration {
	t0 := Cycles()
	fn()
	return time.Duration(Cycles() - t0)
}
