package omp

import (
	"math"
	"sync"
	"sync/atomic"

	"goomp/internal/collector"
	"goomp/internal/super"
)

// Lock is a user-defined OpenMP lock (omp_lock_t). The implementation
// follows the paper's §IV-C.3: acquisition first tries the lock
// without blocking; only if the lock is busy does the thread enter the
// lock-wait state, increment its lock wait ID and trigger the wait
// events. The zero value is an unlocked lock.
type Lock struct {
	mu sync.Mutex
}

// Acquire takes the lock on behalf of tc's thread, tracking the wait
// state and events on contention. tc may be nil (serial code), in
// which case the lock degrades to a plain mutex.
func (l *Lock) Acquire(tc *ThreadCtx) {
	if l.mu.TryLock() {
		if s := super.Enabled(); s != nil {
			s.Acquired(lockRes(l, ""), superWhoOf(tc))
		}
		return
	}
	if tc == nil {
		s := super.Enabled()
		var tok uint64
		if s != nil {
			tok = s.BeginWait("serial", -1, lockRes(l, ""),
				collector.StateLockWait.String())
		}
		l.mu.Lock()
		if s != nil {
			s.EndWait(tok)
			s.Acquired(lockRes(l, ""), "serial")
		}
		return
	}
	td := tc.td
	prev := td.State()
	td.EnterWait(collector.StateLockWait)
	tc.rt.col.Event(td, collector.EventThrBeginLkwt)
	s := super.Enabled()
	var tok uint64
	if s != nil {
		tok = s.BeginWait(tc.superWho(), td.ID, lockRes(l, ""),
			collector.StateLockWait.String())
	}
	l.mu.Lock()
	if s != nil {
		s.EndWait(tok)
		s.Acquired(lockRes(l, ""), tc.superWho())
	}
	tc.rt.col.Event(td, collector.EventThrEndLkwt)
	td.SetState(prev)
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
		s.Released(lockRes(l, ""))
	}
	l.mu.Unlock()
}

// NestedLock is an omp_nest_lock_t: the owning thread may re-acquire
// it, and it unlocks when released as many times as acquired. The same
// wait-tracking procedure as Lock applies to nested locks (§IV-C.3).
type NestedLock struct {
	mu    sync.Mutex
	cond  *sync.Cond
	owner *ThreadCtx
	depth int
}

// Acquire takes the nested lock for tc, waiting (in the lock-wait
// state) while another thread owns it.
func (nl *NestedLock) Acquire(tc *ThreadCtx) {
	nl.mu.Lock()
	if nl.cond == nil {
		nl.cond = sync.NewCond(&nl.mu)
	}
	if nl.owner == tc && tc != nil {
		nl.depth++
		nl.mu.Unlock()
		return
	}
	if nl.owner != nil {
		var td *collector.ThreadInfo
		var prev collector.State
		if tc != nil {
			td = tc.td
			prev = td.State()
			td.EnterWait(collector.StateLockWait)
			tc.rt.col.Event(td, collector.EventThrBeginLkwt)
		}
		s := super.Enabled()
		var tok uint64
		if s != nil {
			tid := int32(-1)
			if td != nil {
				tid = td.ID
			}
			tok = s.BeginWait(superWhoOf(tc), tid, nestedLockRes(nl),
				collector.StateLockWait.String())
		}
		for nl.owner != nil {
			nl.cond.Wait()
		}
		if s != nil {
			s.EndWait(tok)
		}
		if tc != nil {
			tc.rt.col.Event(td, collector.EventThrEndLkwt)
			td.SetState(prev)
		}
	}
	nl.owner = tc
	nl.depth = 1
	if s := super.Enabled(); s != nil {
		s.Acquired(nestedLockRes(nl), superWhoOf(tc))
	}
	nl.mu.Unlock()
}

// TryAcquire takes the nested lock if it is free or already owned by
// tc; it reports whether the lock was taken.
func (nl *NestedLock) TryAcquire(tc *ThreadCtx) bool {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	if nl.cond == nil {
		nl.cond = sync.NewCond(&nl.mu)
	}
	if nl.owner == nil || (nl.owner == tc && tc != nil) {
		if nl.owner == nil {
			nl.owner = tc
			nl.depth = 1
			if s := super.Enabled(); s != nil {
				s.Acquired(nestedLockRes(nl), superWhoOf(tc))
			}
		} else {
			nl.depth++
		}
		return true
	}
	return false
}

// Release undoes one Acquire; the final release wakes one waiter.
func (nl *NestedLock) Release() {
	nl.mu.Lock()
	if nl.depth == 0 {
		nl.mu.Unlock()
		panic("omp: release of unheld nested lock")
	}
	nl.depth--
	if nl.depth == 0 {
		nl.owner = nil
		if s := super.Enabled(); s != nil {
			s.Released(nestedLockRes(nl))
		}
		if nl.cond != nil {
			nl.cond.Signal()
		}
	}
	nl.mu.Unlock()
}

// Depth reports the current nesting depth (0 when unheld).
func (nl *NestedLock) Depth() int {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	return nl.depth
}

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
	tc.enterGeneratedLock(l, detail, collector.StateCriticalWait,
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

// enterGeneratedLock acquires a compiler-generated lock with the given
// wait state and events — the shared mechanics of critical regions and
// reductions, which OpenUH generates the same way. detail names the
// construct in hang-supervision reports; the resource key is the lock
// address, matching the Released record in Lock.Release.
func (tc *ThreadCtx) enterGeneratedLock(l *Lock, detail string, st collector.State, begin, end collector.Event) {
	if l.mu.TryLock() {
		if s := super.Enabled(); s != nil {
			s.Acquired(lockRes(l, detail), tc.superWho())
		}
		return
	}
	td := tc.td
	prev := td.State()
	td.EnterWait(st)
	tc.rt.col.Event(td, begin)
	s := super.Enabled()
	var tok uint64
	if s != nil {
		tok = s.BeginWait(tc.superWho(), td.ID, lockRes(l, detail), st.String())
	}
	l.mu.Lock()
	if s != nil {
		s.EndWait(tok)
		s.Acquired(lockRes(l, detail), tc.superWho())
	}
	tc.rt.col.Event(td, end)
	td.SetState(prev)
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
	tc.enterGeneratedLock(&tc.team.reduction, "reduction", collector.StateCriticalWait,
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
