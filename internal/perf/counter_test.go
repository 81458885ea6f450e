package perf

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestCyclesOrderedAcrossThreads hands a stamp back and forth between
// two goroutines through an atomic: a stamp taken after loading
// another goroutine's stamp must not be earlier than it, whichever CPU
// either ran on. Run it at -cpu 1,2,4.
func TestCyclesOrderedAcrossThreads(t *testing.T) {
	n := 1000000
	if raceEnabled {
		n = 100000
	}
	var (
		box    atomic.Int64 // the last stamp, shifted; its low bit says whose turn it is
		failed atomic.Bool
	)
	pass := func(side int64) string {
		for i := 0; i < n; i++ {
			var got int64
			for spins := 0; ; spins++ {
				if failed.Load() {
					return ""
				}
				if got = box.Load(); got&1 == side {
					break
				}
				if spins > 64 {
					runtime.Gosched()
				}
			}
			now := Cycles()
			if now < got>>1 {
				failed.Store(true)
				return fmt.Sprintf("handoff %d: stamp %d after loading %d", i, now, got>>1)
			}
			box.Store(now<<1 | (1 - side))
		}
		return ""
	}
	errs := make(chan string, 2)
	go func() { errs <- pass(1) }()
	go func() { errs <- pass(0) }()
	for i := 0; i < 2; i++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}

// TestCyclesQuantized: ClockQuantum is a power of two, and every
// reading is a multiple of it, whichever source this host reads.
func TestCyclesQuantized(t *testing.T) {
	q := int64(ClockQuantum)
	if q <= 0 || q&(q-1) != 0 {
		t.Fatalf("ClockQuantum %v is not a power of two", ClockQuantum)
	}
	for i := 0; i < 100000; i++ {
		if now := Cycles(); now%q != 0 {
			t.Fatalf("%s clock read %d, not a multiple of %d", ClockSource(), now, q)
		}
	}
}

// TestCyclesDrift compares a second on the counter with the same
// second on the monotonic clock.
func TestCyclesDrift(t *testing.T) {
	c0, m0 := Cycles(), monotonic()
	time.Sleep(time.Second)
	c1, m1 := Cycles(), monotonic()
	dc, dm := float64(c1-c0), float64(m1-m0)
	if math.Abs(dc-dm) > 0.001*dm {
		t.Fatalf("%s clock: %v on the counter against %v monotonic (%.4f %%)",
			ClockSource(), time.Duration(dc), time.Duration(dm), 100*(dc-dm)/dm)
	}
}

// TestMonotonicFallback reads the clock every host without a usable
// TSC uses: it never decreases and lies between two time.Since readings.
func TestMonotonicFallback(t *testing.T) {
	before := int64(time.Since(epoch))
	prev := monotonic()
	for i := 0; i < 100000; i++ {
		now := monotonic()
		if now < prev {
			t.Fatalf("monotonic went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
	if after := int64(time.Since(epoch)); prev < before || prev > after {
		t.Fatalf("monotonic %d outside [%d, %d]", prev, before, after)
	}
}

// TestClockGate checks which hosts read the TSC.
func TestClockGate(t *testing.T) {
	for _, c := range []struct {
		goos, src string
		invariant bool
		want      bool
	}{
		{"linux", "tsc\n", true, true},
		{"linux", "kvm-clock\n", true, false},
		{"linux", "tsc\n", false, false},
		{"linux", "", true, false},
		{"darwin", "tsc\n", true, false},
	} {
		if got := useTSC(c.goos, c.invariant, c.src); got != c.want {
			t.Errorf("useTSC(%q, %v, %q) = %v, want %v", c.goos, c.invariant, c.src, got, c.want)
		}
	}
	if want := map[bool]string{true: "tsc", false: "monotonic"}[clock.mult != 0]; ClockSource() != want {
		t.Errorf("ClockSource() = %q, want %q", ClockSource(), want)
	}
}

// TestTSCConversion drives the conversion with made-up ticks: a 3 GHz
// counter an hour on, where a 64-bit product would have overflowed,
// and a tick before the calibration's, which reads as its base.
func TestTSCConversion(t *testing.T) {
	k := tscClock{base: 1000, tsc0: 1 << 40, mult: (1 << 32) / 3}
	hour := uint64(3e9 * 3600)
	if got, want := k.at(k.tsc0+hour), int64(1000+time.Hour); math.Abs(float64(got-want)) > 1e-9*float64(want) {
		t.Errorf("an hour at 3 GHz reads %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got := k.at(k.tsc0 - 5); got != k.base {
		t.Errorf("a tick before calibration reads %d, want %d", got, k.base)
	}
}

// TestCalibrationBound bounds what init spends calibrating the TSC.
func TestCalibrationBound(t *testing.T) {
	if ClockSource() != "tsc" {
		t.Skip("the counter reads the monotonic clock on this host")
	}
	if calibration < calibrationSpin || calibration > 50*time.Millisecond {
		t.Fatalf("calibration took %v, want %v to 50ms", calibration, calibrationSpin)
	}
}

// BenchmarkCycles times one counter read, and the monotonic clock it
// replaces where the TSC is usable.
func BenchmarkCycles(b *testing.B) {
	b.Run("cycles", func(b *testing.B) {
		var s int64
		for i := 0; i < b.N; i++ {
			s += Cycles()
		}
		sink64 = s
	})
	b.Run("monotonic", func(b *testing.B) {
		var s int64
		for i := 0; i < b.N; i++ {
			s += monotonic()
		}
		sink64 = s
	})
}

var sink64 int64
