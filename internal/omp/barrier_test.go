package omp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the team barrier beyond the four-thread cases in
// runtime_test.go: oversubscribed teams under both wait policies,
// cross-phase visibility on a team wider than the host, and
// cancellation with part of the team arrived.

// runOversubscribed runs a team much larger than GOMAXPROCS through a
// stretch of barriers and fails if it does not finish before the
// deadline: the hybrid waiter must park rather than spin forever, or
// descheduled threads starve the releasing thread.
func runOversubscribed(t *testing.T, cfg Config) {
	t.Helper()
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	const threads, rounds = 16, 50
	cfg.NumThreads = threads
	r := New(cfg)
	defer r.Close()
	var counter atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Parallel(func(tc *ThreadCtx) {
			for i := 0; i < rounds; i++ {
				counter.Add(1)
				tc.Barrier()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("oversubscribed team did not finish: barrier waiters starved the releaser")
	}
	if got := counter.Load(); got != threads*rounds {
		t.Errorf("counter = %d, want %d", got, threads*rounds)
	}
}

func TestOversubscribedCentralBarrier(t *testing.T) {
	t.Run("active", func(t *testing.T) { runOversubscribed(t, Config{SpinBarrier: true}) })
	t.Run("passive", func(t *testing.T) { runOversubscribed(t, Config{}) })
}

// TestBarrierPhasesEightThreads is the cross-phase visibility check
// of TestBarrierPhases on a team wider than the host has cores.
func TestBarrierPhasesEightThreads(t *testing.T) { runBarrierPhases(t, 8) }

// TestBarrierCancelReleasesPartialArrival parks part of a team in the
// barrier (spin budget 16, so the waiters are parked, not spinning),
// cancels it, and requires every waiter back exactly once, with later
// arrivals passing straight through.
func TestBarrierCancelReleasesPartialArrival(t *testing.T) {
	const size = 8
	b := newSpinBarrier(size, 16, nil)
	arrivers := []int{1, 2, 3, 4, 5} // threads 0, 6 and 7 never arrive
	var returned atomic.Int32
	var wg sync.WaitGroup
	for _, tid := range arrivers {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			b.await(tid)
			returned.Add(1)
		}(tid)
	}
	// Give the waiters time to arrive and park; the barrier cannot
	// complete with three threads missing.
	time.Sleep(50 * time.Millisecond)
	if got := returned.Load(); got != 0 {
		t.Fatalf("%d waiters returned before cancel with the team incomplete", got)
	}
	b.cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("cancel released %d of %d waiters", returned.Load(), len(arrivers))
	}
	if got := returned.Load(); got != int32(len(arrivers)) {
		t.Fatalf("%d waiters returned, want %d", got, len(arrivers))
	}
	// A cancelled barrier never blocks again: the threads that had not
	// arrived pass straight through.
	for _, tid := range []int{0, 6, 7} {
		c := make(chan struct{})
		go func(tid int) { b.await(tid); close(c) }(tid)
		select {
		case <-c:
		case <-time.After(10 * time.Second):
			t.Fatalf("await(%d) blocked after cancel", tid)
		}
	}
}

// TestPanicReleasesEightThreadBarrier is the runtime-level companion:
// a panic on one thread of an eight-thread team must cancel the
// barrier so the region joins, and the panic must reach the master.
func TestPanicReleasesEightThreadBarrier(t *testing.T) {
	r := newRT(t, Config{NumThreads: 8})
	expectRegionPanic(t, "thread 3", func() {
		r.Parallel(func(tc *ThreadCtx) {
			if tc.ThreadNum() == 3 {
				panic("boom")
			}
			tc.Barrier()
		})
	})
	var ok atomic.Int32
	r.Parallel(func(tc *ThreadCtx) { ok.Add(1) })
	if ok.Load() != 8 {
		t.Errorf("region after panic ran %d threads, want 8", ok.Load())
	}
}
