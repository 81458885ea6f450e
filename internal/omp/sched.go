package omp

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"goomp/internal/collector"
	"goomp/internal/super"
)

// Schedule selects how a worksharing loop's iterations are divided
// among the team, mirroring OpenMP's schedule kinds.
type Schedule int

const (
	// ScheduleStatic divides iterations into contiguous blocks, one per
	// thread (chunk 0), or round-robins fixed chunks (chunk > 0). This
	// is OMP_STATIC_EVEN / __ompc_static_init_4 territory: each thread
	// computes its own bounds with no shared state.
	ScheduleStatic Schedule = iota
	// ScheduleDynamic hands out chunks first-come first-served from a
	// shared counter.
	ScheduleDynamic
	// ScheduleGuided hands out shrinking chunks proportional to the
	// remaining iterations, bounded below by the chunk size.
	ScheduleGuided
	// ScheduleRuntime defers to the runtime's configured Schedule/Chunk
	// ICVs.
	ScheduleRuntime
	// ScheduleSteal pre-partitions chunks evenly into per-thread chunk
	// deques; a thread that runs dry steals the top half of a victim's
	// remaining range (see steal.go). Chunk boundaries are identical to
	// ScheduleDynamic with the same chunk size; only the chunk-to-thread
	// assignment differs.
	ScheduleSteal
)

var scheduleNames = [...]string{
	ScheduleStatic:  "static",
	ScheduleDynamic: "dynamic",
	ScheduleGuided:  "guided",
	ScheduleRuntime: "runtime",
	ScheduleSteal:   "steal",
}

func (s Schedule) String() string {
	if s < 0 || int(s) >= len(scheduleNames) {
		return "schedule(?)"
	}
	return scheduleNames[s]
}

// StaticBounds computes the iteration block [lo, hi) of thread tid in a
// team of nthr for a loop of n iterations under the even static
// schedule — the calculation __ompc_static_init_4 performs for the
// outlined loop in Fig. 2 of the paper. Iterations are distributed as
// evenly as possible, the first n%nthr threads receiving one extra.
func StaticBounds(tid, nthr, n int) (lo, hi int) {
	if nthr <= 0 || n <= 0 {
		return 0, 0
	}
	base := n / nthr
	rem := n % nthr
	lo = tid*base + min(tid, rem)
	hi = lo + base
	if tid < rem {
		hi++
	}
	return lo, hi
}

// loopRingSize is the number of preallocated worksharing-loop
// descriptors per team. A thread can run at most loopRingSize nowait
// constructs ahead of the slowest team member before it waits for a
// slot to retire; eight covers every loop-heavy kernel in the repo
// without ever blocking.
const loopRingSize = 8

// maxBatchChunks bounds how many schedule chunks a dynamic-loop claim
// takes from the shared counter in one atomic operation.
const maxBatchChunks = 16

// loopDesc is the shared descriptor of one worksharing loop instance:
// one reusable slot of the team's descriptor ring. The slot cycles
// through episodes identified by the construct sequence number: claim
// (first arriver wins initialization), ready (initialized fields
// published), free (all threads retired, slot reusable). The hot
// atomics next and arrived sit on their own cache lines so chunk
// claims do not collide with retirement counts or the episode words.
type loopDesc struct {
	// Episode configuration: written by the claiming thread, published
	// by ready, read-only until the slot retires.
	n     int
	chunk int
	seq   int64

	claim atomic.Int64 // sequence number that claimed the slot
	ready atomic.Int64 // sequence number whose init is published
	free  atomic.Int64 // last fully retired sequence number
	_     [cacheLinePad - 24]byte

	next atomic.Int64 // next unassigned iteration (dynamic/guided)
	_    [cacheLinePad - 8]byte

	arrived atomic.Int32 // threads that finished the loop body
	_       [cacheLinePad - 4]byte

	// Ordered-clause support: ordered sections retire strictly in
	// iteration order. The condition variable is created lazily by the
	// first Ordered.Do on the slot and persists across episodes.
	omu         sync.Mutex
	ocond       *sync.Cond
	orderedNext int64

	// deq holds the per-thread chunk deques of a steal-schedule episode
	// (see steal.go). Allocated by the first steal loop to claim the
	// slot and reused by every later episode, so steady-state steal
	// loops allocate nothing.
	deq []chunkDeque
}

// getLoop returns the descriptor for the worksharing construct with
// this thread's current sequence number and advances the sequence. The
// descriptor is a ring slot: the first thread to arrive claims and
// initializes it; later threads wait (yielding) for the published
// initialization. No lock is taken and nothing is allocated.
func (tc *ThreadCtx) getLoop(n, chunk int) *loopDesc {
	return tc.getLoopKind(n, chunk, false)
}

// getLoopKind is getLoop with schedule-specific episode setup: a steal
// episode additionally pre-partitions the chunk index space [0, nchunks)
// evenly into the slot's per-thread chunk deques (the same split as
// StaticBounds, so adjacent chunks start on the same thread). The
// claiming thread writes every deque word before publishing ready, so
// teammates acquire fully initialized deques through the ready load.
func (tc *ThreadCtx) getLoopKind(n, chunk int, steal bool) *loopDesc {
	s := int64(tc.loopSeq)
	tc.loopSeq++
	ld := &tc.team.ring[s%loopRingSize]
	prev := s - loopRingSize
	// A slot is reusable once its previous tenant has fully retired;
	// waiting here only happens when this thread is loopRingSize
	// nowait constructs ahead of a teammate.
	for ld.free.Load() != prev {
		runtime.Gosched()
	}
	if ld.claim.Load() == prev && ld.claim.CompareAndSwap(prev, s) {
		ld.n, ld.chunk, ld.seq = n, chunk, s
		ld.next.Store(0)
		ld.arrived.Store(0)
		ld.orderedNext = 0
		if steal {
			p := tc.team.size
			if len(ld.deq) < p {
				ld.deq = make([]chunkDeque, p)
			}
			nchunks := 0
			if chunk > 0 {
				nchunks = (n + chunk - 1) / chunk
			}
			for i := 0; i < p; i++ {
				lo, hi := StaticBounds(i, p, nchunks)
				ld.deq[i].w.Store(packChunks(uint32(lo), uint32(hi)))
			}
		}
		ld.ready.Store(s)
	} else {
		for ld.ready.Load() != s {
			runtime.Gosched()
		}
	}
	return ld
}

// doneLoop retires the thread from the loop; the last thread to leave
// marks the ring slot free for its next tenant. Retiring a construct
// is forward progress the hang supervisor must see, or a long loop
// with every other thread parked at the closing barrier would look
// like a hang.
func (tc *ThreadCtx) doneLoop(ld *loopDesc) {
	if int(ld.arrived.Add(1)) == tc.team.size {
		ld.free.Store(ld.seq)
	}
	if s := super.Enabled(); s != nil {
		s.Note()
	}
}

// noteChunk reports one schedule-chunk claim to the hang supervisor —
// the finest-grained progress signal, which is what keeps a single
// long dynamic/guided loop from tripping the watchdog while its
// teammates wait. Free when supervision is off (one atomic load).
func noteChunk() {
	if s := super.Enabled(); s != nil {
		s.Note()
	}
}

// loopBegin fires the worksharing-loop begin event and advances the
// thread's loop ID when the extension is enabled. A tool relates the
// loop to its closing barrier by pairing this loop ID with the barrier
// wait ID that follows.
func (tc *ThreadCtx) loopBegin() {
	if !tc.rt.cfg.LoopEvents {
		return
	}
	tc.td.EnterLoop()
	tc.rt.col.Event(tc.td, collector.EventThrBeginLoop)
}

func (tc *ThreadCtx) loopEnd() {
	if !tc.rt.cfg.LoopEvents {
		return
	}
	tc.rt.col.Event(tc.td, collector.EventThrEndLoop)
}

// For distributes iterations [0, n) over the team with the even static
// schedule and calls body for each local iteration, then joins the
// implicit barrier that ends the construct.
func (tc *ThreadCtx) For(n int, body func(i int)) {
	tc.ForNoWait(n, body)
	tc.implicitBarrier()
}

// ForNoWait is For with the nowait clause: no barrier at loop end.
func (tc *ThreadCtx) ForNoWait(n int, body func(i int)) {
	tc.loopBegin()
	lo, hi := StaticBounds(tc.id, tc.team.size, n)
	for i := lo; i < hi; i++ {
		body(i)
	}
	tc.loopEnd()
}

// ForSched distributes iterations [0, n) under the given schedule and
// chunk size, invoking body once per assigned chunk [lo, hi), then
// joins the implicit barrier. Every thread of the team must execute
// the construct (OpenMP worksharing rule).
func (tc *ThreadCtx) ForSched(n int, sched Schedule, chunk int, body func(lo, hi int)) {
	tc.ForSchedNoWait(n, sched, chunk, body)
	tc.implicitBarrier()
}

// ForSchedNoWait is ForSched with the nowait clause.
func (tc *ThreadCtx) ForSchedNoWait(n int, sched Schedule, chunk int, body func(lo, hi int)) {
	tc.loopBegin()
	defer tc.loopEnd()
	if sched == ScheduleRuntime {
		sched = tc.rt.cfg.Schedule
		if sched == ScheduleRuntime {
			sched = ScheduleStatic
		}
		chunk = tc.rt.cfg.Chunk
	}
	if chunk <= 0 && sched != ScheduleStatic {
		chunk = 1
	}
	// Loops too large for the packed deque word degrade to dynamic:
	// same boundaries, shared-counter claiming. The count is compared as
	// an int64, where the bound fits whatever the width of int.
	if sched == ScheduleSteal && int64((n+chunk-1)/chunk) >= maxStealChunks {
		sched = ScheduleDynamic
	}
	switch sched {
	case ScheduleStatic:
		if chunk <= 0 {
			lo, hi := StaticBounds(tc.id, tc.team.size, n)
			if lo < hi {
				body(lo, hi)
			}
			return
		}
		// Round-robin chunks: thread tid takes chunks tid, tid+p,
		// tid+2p, ...
		p := tc.team.size
		for lo := tc.id * chunk; lo < n; lo += p * chunk {
			hi := min(lo+chunk, n)
			body(lo, hi)
		}
	case ScheduleDynamic:
		ld := tc.getLoop(n, chunk)
		// Batched claiming: take a chunk-of-chunks sized to the
		// remaining work in one atomic add, then drain it locally chunk
		// by chunk. Chunk boundaries are identical to the unbatched
		// schedule (every claim is a multiple of chunk); only the
		// chunk->thread assignment changes, which the dynamic schedule
		// leaves unspecified. The batch size is remaining >> shift with
		// 2^shift the largest power of two not above 4p*chunk — a shift
		// instead of a division on the claim path — so the shrinking
		// batches bound tail imbalance to about 1/(2p) of the remaining
		// iterations, capped at maxBatchChunks chunks.
		shift := bits.Len64(uint64(4*tc.team.size*chunk)) - 1
		// next is this thread's last-seen claim counter; it may lag the
		// shared counter (teammates claiming concurrently), which only
		// overestimates remaining and never the claimed bounds.
		next := ld.next.Load()
		for {
			remaining := int64(n) - next
			if remaining <= 0 {
				break
			}
			batch := remaining >> shift
			if batch < 1 {
				batch = 1
			} else if batch > maxBatchChunks {
				batch = maxBatchChunks
			}
			claim := batch * int64(chunk)
			end := ld.next.Add(claim)
			lo := end - claim
			if lo >= int64(n) {
				break
			}
			hi := min(end, int64(n))
			for c := lo; c < hi; c += int64(chunk) {
				body(int(c), min(int(c)+chunk, n))
				noteChunk()
			}
			next = end
		}
		tc.doneLoop(ld)
	case ScheduleGuided:
		ld := tc.getLoop(n, chunk)
		p := int64(tc.team.size)
		for {
			lo := ld.next.Load()
			if lo >= int64(n) {
				break
			}
			size := (int64(n) - lo) / (2 * p)
			if size < int64(chunk) {
				size = int64(chunk)
			}
			if !ld.next.CompareAndSwap(lo, lo+size) {
				continue
			}
			body(int(lo), min(int(lo+size), n))
			noteChunk()
		}
		tc.doneLoop(ld)
	case ScheduleSteal:
		tc.forSteal(n, chunk, body)
	default:
		panic("omp: unknown schedule kind")
	}
}

// Ordered is the handle a ForOrdered body uses to run its ordered
// section in iteration order. The loop reuses one handle for all of a
// thread's iterations, so a handle is valid only during the body call
// it was passed to.
type Ordered struct {
	tc *ThreadCtx
	ld *loopDesc
	i  int
}

// Do executes fn as the ordered section of iteration i: it waits until
// every earlier iteration's ordered section has retired. While
// waiting, the thread is in THR_ODWT_STATE and triggers the ordered
// wait events; its ordered wait ID increments per wait.
func (o *Ordered) Do(fn func()) {
	tc, ld := o.tc, o.ld
	ld.omu.Lock()
	if ld.ocond == nil {
		ld.ocond = sync.NewCond(&ld.omu)
	}
	if ld.orderedNext != int64(o.i) {
		w := tc.beginWait(0, collector.StateOrderedWait, collector.EventThrBeginOdwt, func() super.Resource {
			return super.Resource{Kind: super.ResOrdered, ID: uint64(uintptr(unsafe.Pointer(ld))),
				Detail: fmt.Sprintf("iteration %d", o.i)}
		})
		for ld.orderedNext != int64(o.i) {
			ld.ocond.Wait()
		}
		tc.endWait(w, collector.EventThrEndOdwt)
	}
	ld.omu.Unlock()

	tc.rt.col.Event(tc.td, collector.EventThrBeginOrdered)
	fn()
	tc.rt.col.Event(tc.td, collector.EventThrEndOrdered)

	ld.omu.Lock()
	ld.orderedNext++
	ld.ocond.Broadcast()
	ld.omu.Unlock()
}

// ForOrdered runs a worksharing loop with the ordered clause: body
// receives each iteration index and an Ordered handle whose Do method
// serializes its section in iteration order. The schedule is static
// with per-iteration granularity so ordered sections cannot deadlock:
// every thread processes its iterations in increasing order.
func (tc *ThreadCtx) ForOrdered(n int, body func(i int, ord *Ordered)) {
	ld := tc.getLoop(n, 1)
	lo, hi := StaticBounds(tc.id, tc.team.size, n)
	ord := &tc.ord
	*ord = Ordered{tc: tc, ld: ld}
	for i := lo; i < hi; i++ {
		ord.i = i
		body(i, ord)
	}
	tc.doneLoop(ld)
	tc.implicitBarrier()
}

// Sections executes each function as an OpenMP section: sections are
// handed to threads first-come first-served, and the construct ends
// with an implicit barrier.
func (tc *ThreadCtx) Sections(fns ...func()) {
	ld := tc.getLoop(len(fns), 1)
	for {
		i := int(ld.next.Add(1)) - 1
		if i >= len(fns) {
			break
		}
		fns[i]()
	}
	tc.doneLoop(ld)
	tc.implicitBarrier()
}
