package omp

import (
	"sync/atomic"

	"goomp/internal/collector"
)

// Work-stealing loop scheduling (schedule(steal), ROADMAP item 3).
//
// Dynamic and guided schedules claim chunks from one shared counter;
// under fine-grained irregular work every claim contends on that single
// cache line and the first claimer of a batched dynamic loop can walk
// away with a monster batch of what turns out to be the heaviest work.
// schedule(steal) instead pre-partitions the chunk index space evenly
// across the team into per-thread chunk deques. Each deque is a single
// packed 64-bit word — the half-open chunk range [lo, hi) in chunk
// units, lo in the low 32 bits — padded to its own cache line. The
// owner pops one chunk at a time from the bottom (low end, preserving
// ascending iteration order and therefore locality of adjacent chunks),
// and a thread that runs dry steals the top half of a victim's
// remaining range in one CAS, moving contention entirely off the
// common case: a thread touching only its own deque runs lock- and
// contention-free.
//
// Correctness of the single-word protocol: every transition is a CAS
// (or an owner store to a provably empty word), and the word fully
// encodes the deque's state. A CAS that succeeds transfers exactly the
// chunks present in the compared-against value, so stale reads are
// harmless — the classic ABA hazard does not apply because no decision
// depends on history, only on the value the CAS actually observed.
// Chunk boundaries are identical to schedule(dynamic) with the same
// chunk size — every body invocation is [k*chunk, min((k+1)*chunk, n))
// — only the chunk-to-thread assignment differs, which OpenMP leaves
// unspecified. That is what lets a steal loop too large for the packed
// deque word degrade to dynamic without changing a body's boundaries.

// chunkDeque is one thread's range of unclaimed schedule chunks,
// packed lo|hi<<32 in chunk units. Padded so owner pops on one deque
// never false-share with steals on a neighbour.
type chunkDeque struct {
	w atomic.Uint64
	_ [cacheLinePad - 8]byte
}

func packChunks(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

func unpackChunks(w uint64) (lo, hi uint32) { return uint32(w), uint32(w >> 32) }

// maxStealChunks is the largest chunk count representable in one packed
// deque word. Larger loops degrade to the dynamic schedule (identical
// boundaries, shared-counter claiming).
const maxStealChunks = 1 << 31

// forSteal runs one worksharing loop under the steal schedule. The
// claiming thread of the loop descriptor has pre-partitioned the chunk
// index space [0, nchunks) evenly over the team (same split as
// StaticBounds); this thread drains its own deque bottom-up and turns
// thief when dry.
func (tc *ThreadCtx) forSteal(n, chunk int, body func(lo, hi int)) {
	ld := tc.getLoopKind(n, chunk, true)
	me := &ld.deq[tc.id].w
	for {
		w := me.Load()
		l, h := unpackChunks(w)
		if l < h {
			if me.CompareAndSwap(w, packChunks(l+1, h)) {
				lo := int(l) * chunk
				body(lo, min(lo+chunk, n))
				noteChunk()
			}
			continue
		}
		if !tc.stealChunks(ld) {
			break
		}
	}
	tc.doneLoop(ld)
}

// stealChunks sweeps the other deques once, stealing the top half of
// the first non-empty range it can take and storing the spoils into
// this thread's own (empty) deque. Returns false when a full sweep
// found nothing to steal: remaining chunks, if any, are in flight in
// deques whose owners have not retired and will drain them.
func (tc *ThreadCtx) stealChunks(ld *loopDesc) bool {
	p := tc.team.size
	for off := 1; off < p; off++ {
		v := tc.id + off
		if v >= p {
			v -= p
		}
		d := &ld.deq[v].w
		for {
			w := d.Load()
			l, h := unpackChunks(w)
			if l >= h {
				break
			}
			// Ceiling half: a lone final chunk is stolen whole rather
			// than stranded behind a busy victim.
			take := (h - l + 1) / 2
			mid := h - take
			if d.CompareAndSwap(w, packChunks(l, mid)) {
				// Own deque is empty and only its owner may store to an
				// empty word (thieves CAS only against non-empty
				// values), so a plain store publishes the spoils.
				ld.deq[tc.id].w.Store(packChunks(mid, h))
				tc.noteSteal(collector.EventChunkSteal, v)
				return true
			}
		}
	}
	return false
}

// noteSteal reports a completed steal: the victim's team-local thread
// number is published in the thief's descriptor for the duration of
// the dispatch (tools read it via ThreadInfo.StealVictim), then the
// extension event fires from the thief.
func (tc *ThreadCtx) noteSteal(e collector.Event, victim int) {
	tc.td.SetStealVictim(int32(victim))
	tc.rt.col.Event(tc.td, e)
}
