package omp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"goomp/internal/collector"
	"goomp/internal/super"
)

// waiting is an open wait, what endWait needs to close it.
type waiting struct {
	prev collector.State
	s    *super.Supervisor
	tok  uint64
}

// beginWait is the one entry to a wait, the paper's §IV-C protocol for
// every construct here that blocks: the thread enters wait state st,
// which increments that state's wait ID, and raises begin. With hang
// supervision on, it also registers the wait on the resource res
// builds (so an un-supervised run builds none); skip counts the
// wrapper frames between the blocking construct and this call, so the
// record's site names the construct. tc is nil for serial code, which
// raises no events but is supervised all the same.
func (tc *ThreadCtx) beginWait(skip int, st collector.State, begin collector.Event, res func() super.Resource) (w waiting) {
	tid := int32(-1)
	if tc != nil {
		w.prev = tc.td.State()
		tc.td.EnterWait(st)
		tc.rt.col.Event(tc.td, begin)
		tid = tc.td.ID
	}
	if w.s = super.Enabled(); w.s != nil {
		w.tok = w.s.BeginWait(skip+1, tc.superWho(), tid, res(), st.String())
	}
	return w
}

// endWait closes the wait beginWait opened: it clears the supervision
// record, raises end and puts the thread back in the state it held.
func (tc *ThreadCtx) endWait(w waiting, end collector.Event) {
	if w.s != nil {
		w.s.EndWait(w.tok)
	}
	if tc != nil {
		tc.rt.col.Event(tc.td, end)
		tc.td.SetState(w.prev)
	}
}

// rtSeq numbers runtime instances so supervision labels stay unique
// when several runtimes coexist in one process (one RT per mpi rank in
// the MZ harnesses). Without it, "thread 3" of two runtimes would
// alias in the wait-for graph and could fabricate cycles.
var rtSeq atomic.Uint64

// superWho returns the thread's stable supervision label, "serial" for
// serial code (nil tc). It is computed on first use and cached in the
// context, which is confined to its thread; only a supervised run
// calls it.
func (tc *ThreadCtx) superWho() string {
	if tc == nil {
		return "serial"
	}
	if tc.slabel == "" {
		tc.slabel = fmt.Sprintf("omp%d thread %d", tc.rt.seq, tc.id)
	}
	return tc.slabel
}

// Lock is a user-defined OpenMP lock (omp_lock_t). The implementation
// follows the paper's §IV-C.3: acquisition first tries the lock
// without blocking; only if the lock is busy does the thread enter the
// lock-wait state, increment its lock wait ID and trigger the wait
// events. Critical sections, reductions and nested locks are Locks
// underneath, so supervision keys every one of them by its address.
// The zero value is an unlocked lock.
type Lock struct {
	mu sync.Mutex
}

// Acquire takes the lock on behalf of tc's thread, tracking the wait
// state and events on contention. tc may be nil (serial code), in
// which case the lock degrades to a plain mutex.
func (l *Lock) Acquire(tc *ThreadCtx) {
	l.acquire(tc, "", collector.StateLockWait, collector.EventThrBeginLkwt, collector.EventThrEndLkwt)
}

// acquire takes the lock for tc, waiting in state st between the
// begin and end events when it is busy, and records tc as its owner
// with the supervisor. detail names the construct in hang reports and
// is not part of the lock's identity there. Its callers are the
// constructs, so the wait's site skips this one frame.
func (l *Lock) acquire(tc *ThreadCtx, detail string, st collector.State, begin, end collector.Event) {
	if !l.mu.TryLock() {
		w := tc.beginWait(1, st, begin, func() super.Resource { return l.res(detail) })
		l.mu.Lock()
		tc.endWait(w, end)
	}
	if s := super.Enabled(); s != nil {
		s.Acquired(l.res(detail), tc.superWho())
	}
}

// res is the lock's supervision key, its address; detail is for
// display only.
func (l *Lock) res(detail string) super.Resource {
	return super.Resource{Kind: super.ResLock, ID: uint64(uintptr(unsafe.Pointer(l))), Detail: detail}
}

// TryAcquire takes the lock if it is free, without ever waiting. It
// has no thread context, so supervision records no owner for it: a
// trylock-held lock still shows its waiters, but cannot close a
// wait-for cycle.
func (l *Lock) TryAcquire() bool { return l.mu.TryLock() }

// Release unlocks the lock. Ownership is cleared before the unlock so
// a racing acquirer's ownership record cannot be erased by ours.
func (l *Lock) Release() {
	if s := super.Enabled(); s != nil {
		s.Released(l.res(""))
	}
	l.mu.Unlock()
}

// NestedLock is an omp_nest_lock_t: the owning thread may re-acquire
// it, and it unlocks when released as many times as acquired. It is a
// Lock, taken and waited for as one (§IV-C.3), plus its owner and
// depth. Serial code owns it as serialOwner, so a nested lock serial
// code holds is held. The Lock is the first field, so supervision
// keys the nested lock by its own address.
type NestedLock struct {
	l     Lock
	owner atomic.Pointer[ThreadCtx]
	depth atomic.Int32
}

// serialOwner stands for serial code (a nil ThreadCtx) as a nested
// lock's owner.
var serialOwner = new(ThreadCtx)

func ownerOf(tc *ThreadCtx) *ThreadCtx {
	if tc == nil {
		return serialOwner
	}
	return tc
}

// Acquire takes the nested lock for tc, waiting (in the lock-wait
// state) while another thread owns it.
func (nl *NestedLock) Acquire(tc *ThreadCtx) {
	if nl.TryAcquire(tc) {
		return
	}
	nl.l.acquire(tc, "nested", collector.StateLockWait, collector.EventThrBeginLkwt, collector.EventThrEndLkwt)
	nl.owner.Store(ownerOf(tc))
	nl.depth.Store(1)
}

// TryAcquire takes the nested lock if it is free or already owned by
// tc; it reports whether the lock was taken.
func (nl *NestedLock) TryAcquire(tc *ThreadCtx) bool {
	if nl.owner.Load() == ownerOf(tc) {
		nl.depth.Add(1)
		return true
	}
	if !nl.l.TryAcquire() {
		return false
	}
	if s := super.Enabled(); s != nil {
		s.Acquired(nl.l.res("nested"), tc.superWho())
	}
	nl.owner.Store(ownerOf(tc))
	nl.depth.Store(1)
	return true
}

// Release undoes one Acquire; the final release unlocks the Lock.
func (nl *NestedLock) Release() {
	if nl.depth.Load() == 0 {
		panic("omp: release of unheld nested lock")
	}
	if nl.depth.Add(-1) == 0 {
		nl.owner.Store(nil)
		nl.l.Release()
	}
}

// Depth reports the current nesting depth (0 when unheld).
func (nl *NestedLock) Depth() int { return int(nl.depth.Load()) }

// Critical executes fn inside the named critical region. The runtime
// keeps one compiler-generated lock per name (the unnamed critical is
// the empty name); waiting to enter tracks THR_CTWT_STATE, the
// critical wait ID and the critical wait events (§IV-C.4).
func (tc *ThreadCtx) Critical(name string, fn func()) {
	l := tc.rt.criticalLock(name)
	detail := ""
	if super.Enabled() != nil { // only the hang supervisor reads it
		detail = criticalDetail(name)
	}
	l.acquire(tc, detail, collector.StateCriticalWait,
		collector.EventThrBeginCtwt, collector.EventThrEndCtwt)
	fn()
	l.Release()
}

func criticalDetail(name string) string {
	if name == "" {
		return "critical"
	}
	return `critical "` + name + `"`
}

func (r *RT) criticalLock(name string) *Lock {
	r.critMu.Lock()
	l := r.critical[name]
	if l == nil {
		l = new(Lock)
		r.critical[name] = l
	}
	r.critMu.Unlock()
	return l
}

// Reduce performs the final update of a reduction: whenever a thread
// enters a reduction operation it sets THR_REDUC_STATE, and the update
// of the shared value is serialized by the team's reduction lock —
// __ompc_reduction / __ompc_end_reduction in the paper's Fig. 2. The
// generic path keeps the lock because the update closure may touch
// arbitrary state; the typed ReduceInt64/ReduceFloat64 entry points
// use the lock-free combining path instead.
func (tc *ThreadCtx) Reduce(update func()) {
	td := tc.td
	prev := td.State()
	td.SetState(collector.StateReduction)
	tc.rt.col.Event(td, collector.EventThrBeginReduction)
	tc.team.reduction.acquire(tc, "reduction", collector.StateCriticalWait,
		collector.EventThrBeginCtwt, collector.EventThrEndCtwt)
	update()
	tc.team.reduction.Release()
	tc.rt.col.Event(td, collector.EventThrEndReduction)
	td.SetState(prev)
}

// redEntry is one pending typed-reduction deposit: the shared target
// (exactly one of i64/f64 is set) and the value accumulated locally
// since the last barrier.
type redEntry struct {
	i64 *int64
	f64 *float64
	iv  int64
	fv  float64
}

// redSlot is one thread's reduction deposit slot, padded so deposits
// never share a cache line across threads. The owning thread is the
// only writer between barriers; the barrier's releasing thread reads
// and clears every slot while the team is quiescent (flushReductions).
// The first int64 and float64 targets live inline — a reduction loop
// almost always accumulates into one shared variable, so the hot
// deposit is a pointer compare and an add; further targets overflow
// into the more slice.
type redSlot struct {
	i64  *int64
	iv   int64
	f64  *float64
	fv   float64
	more []redEntry
	_    [2*cacheLinePad - 56]byte
}

func (tc *ThreadCtx) depositInt64(p *int64, v int64) {
	s := &tc.team.red[tc.id]
	if s.i64 == p {
		s.iv += v
		return
	}
	if s.i64 == nil {
		s.i64, s.iv = p, v
		if !tc.team.redPending.Load() {
			tc.team.redPending.Store(true)
		}
		return
	}
	for i := range s.more {
		if s.more[i].i64 == p {
			s.more[i].iv += v
			return
		}
	}
	s.more = append(s.more, redEntry{i64: p, iv: v})
}

func (tc *ThreadCtx) depositFloat64(p *float64, v float64) {
	s := &tc.team.red[tc.id]
	if s.f64 == p {
		s.fv += v
		return
	}
	if s.f64 == nil {
		s.f64, s.fv = p, v
		if !tc.team.redPending.Load() {
			tc.team.redPending.Store(true)
		}
		return
	}
	for i := range s.more {
		if s.more[i].f64 == p {
			s.more[i].fv += v
			return
		}
	}
	s.more = append(s.more, redEntry{f64: p, fv: v})
}

// ReduceFloat64 accumulates local into *shared. The deposit goes to
// the thread's padded reduction slot and is combined into *shared by
// the releasing thread of the team's next barrier (the combining-tree
// root for large teams), so the common path takes no lock and touches
// no shared cache line. Per OpenMP reduction semantics the combined
// value is visible after that barrier — the implicit barrier ending
// the region at the latest. The wait state, reduction state and
// begin/end reduction events are identical to the locked path.
func (tc *ThreadCtx) ReduceFloat64(shared *float64, local float64) {
	td := tc.td
	prev := td.State()
	td.SetState(collector.StateReduction)
	tc.rt.col.Event(td, collector.EventThrBeginReduction)
	if tc.team.size == 1 {
		*shared += local
	} else {
		tc.depositFloat64(shared, local)
	}
	tc.rt.col.Event(td, collector.EventThrEndReduction)
	td.SetState(prev)
}

// ReduceInt64 accumulates local into *shared via the same lock-free
// combining path as ReduceFloat64.
func (tc *ThreadCtx) ReduceInt64(shared *int64, local int64) {
	td := tc.td
	prev := td.State()
	td.SetState(collector.StateReduction)
	tc.rt.col.Event(td, collector.EventThrBeginReduction)
	if tc.team.size == 1 {
		*shared += local
	} else {
		tc.depositInt64(shared, local)
	}
	tc.rt.col.Event(td, collector.EventThrEndReduction)
	td.SetState(prev)
}

// AtomicAddInt64 performs an atomic update of *addr. With
// Config.AtomicEvents the runtime tracks THR_ATWT_STATE and the atomic
// wait events when the first update attempt fails — the extension the
// paper declined to implement for overhead reasons (§IV-C.7).
func (tc *ThreadCtx) AtomicAddInt64(addr *int64, delta int64) {
	// First attempt: a single CAS, the uncontended fast path.
	old := atomic.LoadInt64(addr)
	if atomic.CompareAndSwapInt64(addr, old, old+delta) {
		return
	}
	tc.atomicWaitBegin()
	for {
		old = atomic.LoadInt64(addr)
		if atomic.CompareAndSwapInt64(addr, old, old+delta) {
			break
		}
	}
	tc.atomicWaitEnd()
}

// AtomicFloat64 is a float64 updated with compare-and-swap loops on
// its bit pattern, the translation OpenMP atomics get for
// floating-point targets without native atomic float support.
type AtomicFloat64 struct {
	bits atomic.Uint64
}

// Load returns the current value.
func (a *AtomicFloat64) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Store sets the value unconditionally.
func (a *AtomicFloat64) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// AtomicAddFloat64 atomically adds delta to a, with optional atomic
// wait tracking on contention.
func (tc *ThreadCtx) AtomicAddFloat64(a *AtomicFloat64, delta float64) {
	old := a.bits.Load()
	if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
		return
	}
	tc.atomicWaitBegin()
	for {
		old = a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			break
		}
	}
	tc.atomicWaitEnd()
}

func (tc *ThreadCtx) atomicWaitBegin() {
	if !tc.rt.cfg.AtomicEvents {
		return
	}
	tc.td.EnterWait(collector.StateAtomicWait)
	tc.rt.col.Event(tc.td, collector.EventThrBeginAtwt)
}

func (tc *ThreadCtx) atomicWaitEnd() {
	if !tc.rt.cfg.AtomicEvents {
		return
	}
	tc.rt.col.Event(tc.td, collector.EventThrEndAtwt)
	tc.td.SetState(collector.StateWorking)
}
