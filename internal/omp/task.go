package omp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"goomp/internal/collector"
)

// Explicit tasks — the OpenMP 3.0 construct the paper's §VI names as
// the next step for the interface ("More work will be needed to extend
// the interface to handle the constructs in the recent OpenMP 3.0
// standard"). A task is deferred work any thread of the team may
// execute; threads drain the team's task deques at barriers and at
// taskwait points, so every task of a region completes by the region's
// closing barrier.
//
// Scheduling is work-stealing: each team thread owns a Chase-Lev deque
// (push and LIFO pop at the bottom by the owner, FIFO single-task
// steals from the top by thieves), replacing the earlier single-lock
// per-team pool whose one mutex serialized every push, pop and
// completion under fine-grained task loads. The collector extension
// defines four events: task creation (EventTaskCreate, fired by the
// creating thread), begin/end of task execution
// (EventThrBeginTask/EventThrEndTask, fired by the executing thread),
// and task migration (EventTaskSteal, fired by the thief with the
// victim's thread number in its descriptor's steal-victim slot).

// task is one deferred unit plus the group its completion signals.
// Nodes are pooled: a node is released back as soon as its exclusive
// owner (the popping or stealing thread) has copied the fields out, so
// steady-state task submission allocates nothing.
type task struct {
	fn     func(tc *ThreadCtx)
	parent *taskGroup
}

// taskGroup counts outstanding children of one creating context.
type taskGroup struct {
	pending atomic.Int32
}

var (
	taskNodePool  = sync.Pool{New: func() any { return new(task) }}
	taskGroupPool = sync.Pool{New: func() any { return new(taskGroup) }}
	taskCtxPool   = sync.Pool{New: func() any { return new(ThreadCtx) }}
)

// initTaskRing is the initial capacity (a power of two) of a task
// deque's circular buffer; the ring doubles when the owner outruns it
// and, like the deque slices themselves, is pooled with its team.
const initTaskRing = 32

// taskRing is the growable circular buffer of a Chase-Lev deque. Slots
// are atomic pointers because a thief reads its candidate slot before
// the top CAS that makes the claim; a reader that loses the CAS
// discards what it read. Old rings stay valid after a grow (entries
// are copied, never moved), so a thief holding a stale ring pointer
// still reads the right task for any index its CAS can win.
type taskRing struct {
	mask  int64
	slots []atomic.Pointer[task]
}

func newTaskRing(n int64) *taskRing {
	return &taskRing{mask: n - 1, slots: make([]atomic.Pointer[task], n)}
}

func (r *taskRing) at(i int64) *atomic.Pointer[task] { return &r.slots[i&r.mask] }

// taskDeque is one thread's work-stealing task deque (Chase-Lev): the
// owner pushes and pops at the bottom, thieves advance top by CAS. The
// three hot words sit on separate cache lines so an owner pushing does
// not collide with thieves scanning top.
type taskDeque struct {
	bottom atomic.Int64
	_      [cacheLinePad - 8]byte
	top    atomic.Int64
	_      [cacheLinePad - 8]byte
	ring   atomic.Pointer[taskRing]
	_      [cacheLinePad - 8]byte
}

// push appends a task at the bottom. Owner-only.
func (d *taskDeque) push(nd *task) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask {
		r = d.grow(r, b, t)
	}
	r.at(b).Store(nd)
	d.bottom.Store(b + 1)
}

// grow doubles the ring, copying the live window. Owner-only; the old
// ring is left intact for concurrent thieves holding it.
func (d *taskDeque) grow(old *taskRing, b, t int64) *taskRing {
	nr := newTaskRing(2 * (old.mask + 1))
	for i := t; i < b; i++ {
		nr.at(i).Store(old.at(i).Load())
	}
	d.ring.Store(nr)
	return nr
}

// pop takes the most recently pushed task (LIFO). Owner-only; the
// last-element race against a thief is resolved by a CAS on top.
func (d *taskDeque) pop() *task {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	nd := r.at(b).Load()
	if t == b {
		// Single element left: race thieves for it.
		if !d.top.CompareAndSwap(t, t+1) {
			nd = nil
		}
		d.bottom.Store(b + 1)
	}
	return nd
}

// steal takes the oldest task (FIFO). Any thread. Returns the task (nil
// if none was taken) and whether the caller should retry: false means
// the deque was seen empty.
func (d *taskDeque) steal() (*task, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	r := d.ring.Load()
	nd := r.at(t).Load()
	if !d.top.CompareAndSwap(t, t+1) {
		// Lost to the owner or another thief; nd is discarded unread.
		return nil, true
	}
	return nd, true
}

// taskScheduler is the per-team task system: one deque per thread.
// The deque slices (and the rings hanging off them) travel with their
// team through the runtime's team pool, so steady-state regions create
// and run tasks without allocating.
type taskScheduler struct {
	deq []taskDeque
}

// Task defers fn as an explicit task. Any thread of the team may run
// it — at a barrier, at a taskwait, or while another taskwait spins.
// The task is pushed on the creating thread's own deque; idle
// teammates steal from the top.
func (tc *ThreadCtx) Task(fn func(tc *ThreadCtx)) {
	tc.rt.col.Event(tc.td, collector.EventTaskCreate)
	if tc.group == nil {
		tc.group = taskGroupPool.Get().(*taskGroup)
	}
	tc.group.pending.Add(1)
	nd := taskNodePool.Get().(*task)
	nd.fn, nd.parent = fn, tc.group
	tc.team.tasks.deq[tc.id].push(nd)
}

// Taskwait blocks until every task created by this context has
// finished. While waiting it executes ready tasks (its own or stolen)
// instead of idling.
func (tc *ThreadCtx) Taskwait() {
	g := tc.group
	if g == nil {
		return
	}
	for g.pending.Load() > 0 {
		if !tc.runOneTask() {
			runtime.Gosched()
		}
	}
}

// runOneTask executes one ready task: the newest from this thread's own
// deque, or failing that the oldest stolen from a teammate. Returns
// false when every deque was seen empty.
func (tc *ThreadCtx) runOneTask() bool {
	sch := &tc.team.tasks
	if nd := sch.deq[tc.id].pop(); nd != nil {
		tc.execTask(nd)
		return true
	}
	p := tc.team.size
	for off := 1; off < p; off++ {
		v := tc.id + off
		if v >= p {
			v -= p
		}
		for {
			nd, retry := sch.deq[v].steal()
			if nd != nil {
				tc.noteSteal(collector.EventTaskSteal, v)
				tc.execTask(nd)
				return true
			}
			if !retry {
				break
			}
		}
	}
	return false
}

// execTask runs one task whose node the caller exclusively owns. The
// task body gets a (pooled) fresh context so children it creates form
// its own group, joined by the implicit taskwait at task end (the
// tied-task guarantee that a task's children complete before it
// reports completion). The context must not be retained past the task
// body, matching the scope of OpenMP's implicit task data environment.
func (tc *ThreadCtx) execTask(nd *task) {
	fn, parent := nd.fn, nd.parent
	nd.fn, nd.parent = nil, nil
	taskNodePool.Put(nd)

	col := tc.rt.col
	col.Event(tc.td, collector.EventThrBeginTask)
	inner := taskCtxPool.Get().(*ThreadCtx)
	*inner = ThreadCtx{rt: tc.rt, team: tc.team, id: tc.id, td: tc.td,
		level: tc.level, parent: tc.parent}
	func() {
		// A panicking task is recorded like a panicking region body;
		// the completion accounting below must still run or a
		// taskwait would deadlock.
		defer func() {
			if r := recover(); r != nil {
				tc.team.recordPanic(tc.id, r)
			}
		}()
		fn(inner)
		if inner.group != nil {
			inner.Taskwait()
		}
	}()
	col.Event(tc.td, collector.EventThrEndTask)
	if g := inner.group; g != nil && g.pending.Load() == 0 {
		taskGroupPool.Put(g)
	}
	*inner = ThreadCtx{}
	taskCtxPool.Put(inner)
	parent.pending.Add(-1)
}

// drainTasks runs ready tasks until every deque of the team is seen
// empty. Barriers call it on entry: once a thread is inside the
// barrier its deque can only shrink (owners alone push), so the last
// thread to arrive finds every remaining task — the OpenMP guarantee
// that all tasks of the region complete at the barrier.
func (tc *ThreadCtx) drainTasks() {
	for tc.runOneTask() {
	}
}

// Taskloop distributes iterations [0, n) as explicit tasks of about
// grain iterations each (grain <= 0 selects n/(8*teamsize), at least
// 1) and waits for all of them — OpenMP's taskloop construct with its
// implicit taskgroup. Ranges are split by recursive halving: the
// splitting itself parallelizes, and each final task invokes body with
// one contiguous [lo, hi) range. Typically called from within Single.
func (tc *ThreadCtx) Taskloop(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (8 * tc.team.size)
		if grain < 1 {
			grain = 1
		}
	}
	// The construct's implicit taskgroup: split tasks join a fresh
	// group so the closing Taskwait does not wait on (or release
	// early because of) unrelated siblings.
	prev := tc.group
	tc.group = nil
	tc.taskloopSplit(0, n, grain, body)
	tc.Taskwait()
	if g := tc.group; g != nil && g.pending.Load() == 0 {
		taskGroupPool.Put(g)
	}
	tc.group = prev
}

func (tc *ThreadCtx) taskloopSplit(lo, hi, grain int, body func(lo, hi int)) {
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		mlo, mhi := mid, hi
		tc.Task(func(itc *ThreadCtx) {
			itc.taskloopSplit(mlo, mhi, grain, body)
		})
		hi = mid
	}
	body(lo, hi)
}
