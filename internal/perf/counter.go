package perf

import (
	"math/bits"
	"os"
	"runtime"
	"strings"
	"time"
)

// Counter is a hardware-based time counter: the prototype tool of the
// paper stores "a sample of a hardware-based time counter" in each
// event callback. Here it is nanoseconds since a process-local epoch,
// never decreasing on a thread, rounded down to a multiple of
// ClockQuantum, from one of two sources:
//
//   - "tsc": on amd64 Linux hosts whose CPU reports an invariant TSC
//     (CPUID 0x80000007 EDX bit 8) and whose kernel chose the TSC as
//     its clocksource (it has then checked the TSC is in step across
//     CPUs), Cycles reads the TSC behind an LFENCE and scales it with
//     one 64×64→128-bit multiply, calibrated once at init against the
//     monotonic clock. The LFENCE keeps the read after every earlier
//     load, so a thread that has seen another's publish never stamps
//     an earlier time; the vDSO orders its own read the same way.
//   - "monotonic": everywhere else, the Go runtime's monotonic clock
//     (a vDSO call on Linux).
//
// Both sources round the same way, so the counter resolves ClockQuantum
// on every host: two events less than a quantum apart may read the same
// time, and whatever orders samples by time keeps equal times in
// sample order.

var epoch = time.Now()

// ClockQuantum is the counter's resolution, a power of two: 8 ns, about
// a fifth of one LFENCE; RDTSC read. A reading's bits below it are
// below what a read can resolve, and a trace block whose times are all
// multiples of it stores none of them (see the PSX2 layout's shift).
const ClockQuantum = 8 * time.Nanosecond

// tscClock converts TSC ticks into nanoseconds since epoch: base is
// the nanosecond reading paired with tick tsc0, and mult the
// nanoseconds per tick in 32.32 fixed point. The product is 128 bits
// wide, so it does not overflow however long the process runs.
type tscClock struct {
	base int64
	tsc0 uint64
	mult uint64
}

// at converts a tick. A tick before tsc0, from a CPU whose TSC trails
// the calibrating one's by a few ticks read just after init, reads as
// base instead of wrapping to the far future.
func (k *tscClock) at(tsc uint64) int64 {
	d := tsc - k.tsc0
	if int64(d) < 0 {
		d = 0
	}
	hi, lo := bits.Mul64(d, k.mult)
	return k.base + int64(hi<<32|lo>>32)
}

// clock is the calibrated TSC conversion; its mult is zero where
// Cycles reads the monotonic clock. calibration is how long init
// spent calibrating it.
var (
	clock       tscClock
	calibration time.Duration
)

// calibrationSpin is how long init spins between the two readings it
// calibrates the TSC by.
const calibrationSpin = 2 * time.Millisecond

func init() {
	// A host without the file (not Linux) fails the gate anyway.
	src, _ := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource")
	if !useTSC(runtime.GOOS, invariantTSC(), string(src)) {
		return
	}
	start := time.Now()
	clock = calibrate(calibrationSpin)
	calibration = time.Since(start)
}

// useTSC is the gate: an invariant TSC on a Linux host whose kernel
// clocksource is the TSC.
func useTSC(goos string, invariant bool, clocksource string) bool {
	return goos == "linux" && invariant && strings.TrimSpace(clocksource) == "tsc"
}

// calibrate pairs a TSC reading with a monotonic one, spins for spin,
// pairs them again, and returns the conversion through both pairs.
func calibrate(spin time.Duration) tscClock {
	tsc0, ns0 := pairedReading()
	for monotonic()-ns0 < int64(spin) {
	}
	tsc1, ns1 := pairedReading()
	return tscClock{base: ns0, tsc0: tsc0, mult: (uint64(ns1-ns0) << 32) / (tsc1 - tsc0)}
}

// pairedReading reads the monotonic clock between two TSC reads, a few
// times, and keeps the tightest bracket: its midpoint is the tick the
// nanosecond reading was taken at, unless the thread was descheduled
// inside every bracket.
func pairedReading() (tsc uint64, ns int64) {
	width := ^uint64(0)
	for i := 0; i < 8; i++ {
		a := readTSC()
		t := monotonic()
		b := readTSC()
		if b-a < width {
			width, tsc, ns = b-a, a+(b-a)/2, t
		}
	}
	return tsc, ns
}

func monotonic() int64 { return int64(time.Since(epoch)) }

// Cycles returns the current counter value in nanoseconds since the
// process-local epoch, rounded down to a multiple of ClockQuantum.
func Cycles() int64 {
	if clock.mult != 0 {
		return clock.at(readTSC()) &^ int64(ClockQuantum-1)
	}
	return monotonic() &^ int64(ClockQuantum-1)
}

// ClockSource names what Cycles reads: "tsc" or "monotonic".
func ClockSource() string {
	if clock.mult != 0 {
		return "tsc"
	}
	return "monotonic"
}

// Time runs fn and returns its wall-clock duration on the counter.
func Time(fn func()) time.Duration {
	t0 := Cycles()
	fn()
	return time.Duration(Cycles() - t0)
}
