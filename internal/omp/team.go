package omp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"goomp/internal/collector"
	"goomp/internal/super"
)

// RegionPanic wraps a panic raised inside a parallel region body (or a
// task body) on any thread of the team. The runtime keeps the
// fork-join structure intact around a panicking body: the team's
// barrier is cancelled so no thread deadlocks waiting for the
// panicked one, every thread finishes the region, and the first panic
// is re-raised on the master after the join event.
type RegionPanic struct {
	Thread int
	Value  any
}

func (p *RegionPanic) Error() string {
	return fmt.Sprintf("omp: panic in parallel region on thread %d: %v", p.Thread, p.Value)
}

// Team is the thread-team descriptor for one parallel region instance
// at a time (teams are pooled, see leave): the barrier the team
// synchronizes on, the shared worksharing state, and the region/parent
// IDs the collector exposes.
type Team struct {
	rt   *RT
	size int
	info collector.TeamInfo // what the members' descriptors point at, rewritten by getTeam
	pfor parFor             // a combined parallel-for's loop, cleared at leave

	barrier *spinBarrier

	// Worksharing constructs are identified by their per-thread
	// sequence number: every thread in a team executes the same
	// sequence of worksharing constructs, so equal sequence numbers
	// address the same construct instance. Loop descriptors live in a
	// fixed ring of preallocated padded slots indexed by sequence
	// number (see getLoop); single descriptors are taken by the first
	// thread to arrive, from singleFree when it holds one, and returned
	// there by the last to leave.
	wsMu       sync.Mutex
	singles    map[uint64]*singleDesc
	singleFree []*singleDesc
	ring       [loopRingSize]loopDesc

	// reduction is the compiler-generated lock serializing updates of
	// shared reduction variables under the generic Reduce path
	// (generated the same way as critical region locks). The typed
	// ReduceInt64/ReduceFloat64 fast path bypasses it: threads deposit
	// into their padded red slot and the deposits are combined by the
	// releasing thread of the next team barrier.
	reduction  Lock
	red        []redSlot
	redPending atomic.Bool

	// tasks is the team's explicit-task system (OpenMP 3.0 extension):
	// per-thread work-stealing deques, pooled with the team.
	tasks taskScheduler

	// members are the threads' contexts, slot i for thread i; each
	// thread refills its own slot as it joins (member). wg is what the
	// master of a true-nested team waits on for threads 1..size-1.
	members []ThreadCtx
	wg      sync.WaitGroup

	// left counts the members done with the region; the one that
	// brings it to size pools the team (leave).
	left atomic.Int32

	panicMu sync.Mutex
	panics  []*RegionPanic
}

// flushReductions applies every pending typed-reduction deposit to its
// shared target and clears the slots. It runs as the barrier's combine
// hook: exactly one thread executes it per barrier episode, after all
// threads have arrived (so no slot has a concurrent writer) and before
// any is released (so every thread leaves the barrier seeing the
// combined values).
func (t *Team) flushReductions() {
	if !t.redPending.Load() {
		return
	}
	t.redPending.Store(false)
	for i := range t.red {
		s := &t.red[i]
		if s.i64 != nil {
			*s.i64 += s.iv
			s.i64, s.iv = nil, 0
		}
		if s.f64 != nil {
			*s.f64 += s.fv
			s.f64, s.fv = nil, 0
		}
		for j := range s.more {
			e := &s.more[j]
			if e.i64 != nil {
				*e.i64 += e.iv
			} else {
				*e.f64 += e.fv
			}
		}
		// The entries point into the region's data: a pooled team
		// must not keep it alive.
		clear(s.more)
		s.more = s.more[:0]
	}
}

// recordPanic stores a recovered panic and cancels the team barrier so
// the remaining threads cannot deadlock waiting for the unwound one.
// Synchronization within the torn-down region is best-effort from this
// point; the region's results are discarded when the master re-raises.
func (t *Team) recordPanic(thread int, value any) {
	t.panicMu.Lock()
	t.panics = append(t.panics, &RegionPanic{Thread: thread, Value: value})
	t.panicMu.Unlock()
	t.barrier.cancel()
}

// firstPanic returns the first recorded panic, or nil.
func (t *Team) firstPanic() *RegionPanic {
	t.panicMu.Lock()
	defer t.panicMu.Unlock()
	if len(t.panics) == 0 {
		return nil
	}
	return t.panics[0]
}

// runRegionBody executes a region body, converting a panic into a team
// panic record so the thread still joins the closing barrier.
func runRegionBody(tc *ThreadCtx, fn func(*ThreadCtx)) {
	defer func() {
		if r := recover(); r != nil {
			tc.team.recordPanic(tc.id, r)
		}
	}()
	fn(tc)
}

func newTeam(r *RT, size int) *Team {
	t := &Team{
		rt:      r,
		size:    size,
		singles: make(map[uint64]*singleDesc),
		red:     make([]redSlot, size),
		members: make([]ThreadCtx, size),
	}
	spin := passiveSpin
	if r.cfg.SpinBarrier {
		spin = activeSpin
	}
	t.barrier = newSpinBarrier(size, spin, t.flushReductions)
	t.tasks.deq = make([]taskDeque, size)
	for i := range t.members {
		t.members[i] = ThreadCtx{rt: r, team: t, id: i}
		t.tasks.deq[i].ring.Store(newTaskRing(initTaskRing))
	}
	return t
}

// getTeam returns a team of size threads for a new region with the
// given parent region ID (zero for a top-level region) and site: a
// pooled one if the runtime has one of that size, else a new one, with
// its TeamInfo describing the region. A pooled team comes back as its
// last region left it — the barrier between episodes, the deques
// drained, the reduction slots flushed — so only the loop ring, whose
// sequence numbers restart with every region, and the leave count are
// re-armed.
func (r *RT) getTeam(size int, parent uint64, site uintptr) *Team {
	r.teamMu.Lock()
	var t *Team
	if free := r.teamFree[size]; len(free) > 0 {
		t = free[len(free)-1]
		r.teamFree[size] = free[:len(free)-1]
	}
	r.teamMu.Unlock()
	if t == nil {
		t = newTeam(r, size)
	}
	t.info.Start(r.regionSeq.Add(1), parent, int32(size), site)
	t.left.Store(0)
	for i := range t.ring {
		// Ring slots start as if their previous tenant (sequence
		// number i - loopRingSize) had fully retired.
		start := int64(i) - loopRingSize
		t.ring[i].claim.Store(start)
		t.ring[i].ready.Store(start)
		t.ring[i].free.Store(start)
	}
	return t
}

// member fills thread id's context slot for the region the team is
// forked for and returns it. Only thread id calls it, as it joins; the
// fields a slot keeps (its task group and supervision label) belong to
// the slot, not to a region.
func (t *Team) member(id int, td *collector.ThreadInfo, level int, parent *ThreadCtx) *ThreadCtx {
	tc := &t.members[id]
	tc.td, tc.level, tc.parent = td, level, parent
	tc.loopSeq, tc.singleSeq = 0, 0
	return tc
}

// leave marks one member done with the region: a worker or a nested
// thread once runMember returns, the master at the end of fork. The
// member that brings the count to size returns the team to the
// runtime's free list, so no member of the next region can meet one
// of this region still inside it. A team whose body panicked never
// gets there — its master re-raises instead of leaving — and is left
// to the collector with whatever its barrier and deques still hold.
func (t *Team) leave() {
	if int(t.left.Add(1)) != t.size {
		return
	}
	clear(t.singles)  // empty unless a member skipped a single
	t.pfor = parFor{} // the region's code and data: a pooled team must not keep them alive
	r := t.rt
	r.teamMu.Lock()
	r.teamFree[t.size] = append(r.teamFree[t.size], t)
	r.teamMu.Unlock()
}

// Barrier is the explicit barrier construct (#pragma omp barrier). The
// compiler translation generates a distinct runtime call for explicit
// barriers so the runtime can distinguish them from implicit ones
// (§IV-C.2); this is that entry point.
func (tc *ThreadCtx) Barrier() {
	tc.barrierImpl(collector.StateExplicitBarrier,
		collector.EventThrBeginEBar, collector.EventThrEndEBar)
}

// implicitBarrier is __ompc_ibarrier: the barrier ending parallel
// regions and (by default) worksharing constructs.
func (tc *ThreadCtx) implicitBarrier() {
	tc.barrierImpl(collector.StateImplicitBarrier,
		collector.EventThrBeginIBar, collector.EventThrEndIBar)
}

func (tc *ThreadCtx) barrierImpl(state collector.State, begin, end collector.Event) {
	// All explicit tasks of the region complete at a barrier: the last
	// thread to arrive drains whatever remains.
	tc.drainTasks()
	// A team of one still counts the barrier (the barrier ID increments
	// each time a thread enters a barrier) but has nobody to wait for.
	w := tc.beginWait(0, state, begin, func() super.Resource {
		return super.Resource{Kind: super.ResBarrier, ID: tc.team.info.RegionID,
			Detail: fmt.Sprintf("region %d, team of %d", tc.team.info.RegionID, tc.team.size)}
	})
	if tc.team.size > 1 {
		tc.team.barrier.await(tc.id)
	}
	tc.endWait(w, end)
}
