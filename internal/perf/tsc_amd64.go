package perf

// readTSC returns the time-stamp counter, read after every earlier
// load has completed (LFENCE; RDTSC).
func readTSC() uint64

// cpuid returns EAX and EDX of CPUID leaf (subleaf 0).
func cpuid(leaf uint32) (eax, edx uint32)

// invariantTSC reports whether the CPU's TSC runs at a constant rate
// in every power state: CPUID 0x80000007, EDX bit 8.
func invariantTSC() bool {
	if max, _ := cpuid(0x80000000); max < 0x80000007 {
		return false
	}
	_, edx := cpuid(0x80000007)
	return edx&(1<<8) != 0
}
