package omp

import (
	"runtime"
	"sync/atomic"
)

// Team-barrier tuning constants. DESIGN.md "Synchronization topology"
// gives the sweep that left one barrier and the wait policy as its
// only input.
const (
	// cacheLinePad is the assumed cache-line size used to pad
	// per-waiter slots and hot counters against false sharing.
	cacheLinePad = 64

	// activeSpin / passiveSpin bound the waiter's spin phase (flag
	// checks before parking) for OMP_WAIT_POLICY=active and =passive.
	// Passive still spins briefly: barriers are usually released
	// within a few microseconds and a park/unpark round trip costs
	// more than the residual spin.
	activeSpin  = 4096
	passiveSpin = 256

	// spinYieldMask: the spin phase yields to the scheduler every
	// (mask+1)-th check, so a waiting thread cannot starve the
	// releasing thread off the CPU when the team is oversubscribed.
	spinYieldMask = 3
)

// waitcell is one waiter's park slot: a release-generation flag the
// waiter spins on briefly and a channel it parks on when the spin
// budget runs out. The flag and park state live on the waiter's own
// cache-line-padded slot, so the only cross-thread traffic is the
// releaser's single store-and-wake.
type waitcell struct {
	flag   atomic.Uint32 // last released generation (monotonic)
	parked atomic.Uint32 // nonzero while the waiter may be parked on ch
	ch     chan struct{}
	_      [cacheLinePad - 16]byte
}

// reached reports whether generation gen has been released. Flags are
// monotonic, so the signed difference survives wraparound.
func (w *waitcell) reached(gen uint32) bool {
	return int32(w.flag.Load()-gen) >= 0
}

// wake releases the waiter into generation gen, unparking it if
// needed. Exactly one thread wakes a given cell per episode.
func (w *waitcell) wake(gen uint32) {
	w.flag.Store(gen)
	w.interrupt()
}

// interrupt unparks the waiter without advancing its generation; the
// waiter re-evaluates its condition (used by wake and by cancel). The
// leading load keeps the common no-parked-waiter path free of atomic
// read-modify-writes; it cannot miss a parking waiter, because the
// waiter publishes parked before re-checking the flag and both
// operations are sequentially consistent — if our load sees parked=0,
// the waiter's re-check sees our flag store and it never sleeps.
func (w *waitcell) interrupt() {
	if w.parked.Load() != 0 && w.parked.Swap(0) != 0 {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// await blocks until generation gen is released or the barrier is
// cancelled: spin (yielding periodically) for up to spin checks, then
// park. A stale token from a previous episode at worst causes one
// spurious re-check.
func (w *waitcell) await(gen uint32, spin int, cancelled *atomic.Bool) {
	for i := 0; i < spin; i++ {
		if w.reached(gen) || cancelled.Load() {
			return
		}
		if i&spinYieldMask == spinYieldMask {
			runtime.Gosched()
		}
	}
	for !w.reached(gen) && !cancelled.Load() {
		w.parked.Store(1)
		// Re-check after publishing the parked flag: a releaser that
		// stored the flag before seeing us parked will not send a
		// token, so we must not sleep.
		if w.reached(gen) || cancelled.Load() {
			w.parked.Store(0)
			return
		}
		<-w.ch
	}
}

// spinBarrier is the team barrier, the only one: one arrival counter,
// per-waiter cache-line-padded release flags, and the hybrid
// bounded-spin-then-park waiter. A waiter that exhausts its spin
// budget parks on its own cell, so an oversubscribed team (threads >
// GOMAXPROCS) makes progress without burning whole scheduler quanta,
// while a team on dedicated cores is released within the spin phase
// and never pays a park/unpark round trip.
//
// await takes the caller's thread number to address its cell. The
// last arriver runs the team's combine hook (the reduction flush)
// after every thread has arrived and before any is released. cancel
// releases all current and future waiters (a region body panicked).
type spinBarrier struct {
	size    int
	spin    int
	combine func()

	count atomic.Int64 // arrivals this episode (hot: own line)
	_     [cacheLinePad - 8]byte

	epoch     atomic.Uint32 // completed episodes
	cancelled atomic.Bool
	_         [cacheLinePad - 5]byte

	cells []waitcell // per-waiter padded release flags
}

func newSpinBarrier(size, spin int, combine func()) *spinBarrier {
	b := &spinBarrier{size: size, spin: spin, combine: combine,
		cells: make([]waitcell, size)}
	for i := range b.cells {
		b.cells[i].ch = make(chan struct{}, 1)
	}
	return b
}

func (b *spinBarrier) await(tid int) {
	if b.cancelled.Load() {
		return
	}
	// The episode this arrival belongs to: epoch cannot advance past
	// the current episode until this thread's arrival is counted, so
	// the pre-arrival read is stable.
	gen := b.epoch.Load() + 1
	if b.count.Add(1) == int64(b.size) {
		// Last arriver: the team is quiescent — run the combine hook,
		// re-arm the counter, publish the episode and release every
		// waiter through its own cell.
		if !b.cancelled.Load() && b.combine != nil {
			b.combine()
		}
		b.count.Store(0)
		b.epoch.Store(gen)
		for i := range b.cells {
			if i != tid {
				b.cells[i].wake(gen)
			}
		}
		return
	}
	b.cells[tid].await(gen, b.spin, &b.cancelled)
}

func (b *spinBarrier) cancel() {
	b.cancelled.Store(true)
	for i := range b.cells {
		b.cells[i].interrupt()
	}
}
