//go:build !amd64

package perf

// Only amd64 reads a hardware counter; Cycles reads the monotonic
// clock everywhere else.

func readTSC() uint64 { return 0 }

func invariantTSC() bool { return false }
