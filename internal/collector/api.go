package collector

import (
	"runtime"
	"sync"
	"sync/atomic"

	"goomp/internal/relstore"
)

// SymbolName is the name under which an OpenMP runtime exports its
// collector API entry point in the simulated dynamic linker
// (goomp/internal/dl). A collector looks this symbol up to discover
// whether the runtime supports the interface; the value registered is
// an APIFunc.
const SymbolName = "__omp_collector_api"

// APIFunc is the type of the exported entry point: it receives the
// request buffer and returns the number of requests that completed
// with ErrOK, or -1 if the buffer could not be parsed. Per-request
// status is written back into each entry's ec field.
type APIFunc func(arg []byte) int

// Callback is an event notification routine supplied by the collector
// tool. The runtime invokes it on the OpenMP thread where the event
// occurred, passing the event type (as the specification requires) and
// the thread's descriptor (the Go substitute for thread-local "current
// thread" context; see DESIGN.md).
type Callback func(e Event, t *ThreadInfo)

// Collector is the runtime-resident half of the OpenMP Collector API:
// the callback table, state bookkeeping, and request processing that
// the paper adds to the OpenUH OpenMP runtime library. One Collector
// belongs to one OpenMP runtime instance.
type Collector struct {
	// initialized is the thread-safe boolean global of §IV-B: true
	// between a start request and a stop request.
	initialized atomic.Bool
	paused      atomic.Bool

	// callbacks is the table of event callbacks shared by all threads.
	// The dispatch fast path is a single atomic load; regLocks holds
	// the per-entry lock that serializes registration of the same
	// event by multiple threads (§IV-C).
	callbacks [NumEvents]atomic.Pointer[Callback]
	regLocks  [NumEvents]sync.Mutex

	// dispatchers lists every descriptor that has dispatched an event
	// through this collector, copy-on-write under dispatchMu. Each
	// keeps its own dispatch counts and in-flight word (dispatchSlot);
	// EventCount and Quiesce sum and scan them here.
	dispatchMu  sync.Mutex
	dispatchers atomic.Pointer[[]*ThreadInfo]

	// started holds, per event, the perf.Cycles() stamp of a sampled
	// dispatch while it runs (zero otherwise), so a wedged callback's
	// age is observable from outside.
	started [NumEvents]atomic.Int64

	// budget and sampleMask configure the callback watchdog (see
	// health.go): with a nonzero budget, dispatches whose count (for
	// their event, on their thread) masks to zero are timed, and an
	// over-budget callback trips
	// the breaker. health is the cold-path fault record.
	budget     atomic.Int64
	sampleMask uint64
	health     healthState

	// threads maps global thread numbers to their current descriptor
	// slot. The slot indirection keeps rebinding cheap: the master
	// rebinds between its serial-mode and parallel-mode descriptors on
	// every region fork and join, which is one atomic store into an
	// existing slot rather than a write-locked map update.
	threadMu sync.RWMutex
	threads  map[int32]*atomic.Pointer[ThreadInfo]

	// handles resolves the callback handles carried in ReqRegister
	// payloads (wire messages cannot carry Go funcs).
	handleMu   sync.Mutex
	handleSeq  uint64
	handles    map[uint64]Callback
	defaultQ   *Queue
	queueMaker func() *Queue
}

// Option configures a Collector.
type Option func(*Collector)

// WithGlobalQueue makes every API call, including those submitted
// through per-tool queues, serialize on one global queue. This is the
// contended design the paper rejected; it exists for the ablation
// benchmarks.
func WithGlobalQueue() Option {
	return func(c *Collector) {
		global := c.defaultQ
		c.queueMaker = func() *Queue { return global }
	}
}

// New returns an empty, uninitialized Collector.
func New(opts ...Option) *Collector {
	c := &Collector{
		threads:    make(map[int32]*atomic.Pointer[ThreadInfo]),
		handles:    make(map[uint64]Callback),
		sampleMask: sampleMaskFor(defaultWatchdogSample),
	}
	c.dispatchers.Store(new([]*ThreadInfo))
	c.defaultQ = newQueue(c)
	c.queueMaker = func() *Queue { return newQueue(c) }
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Initialized reports whether a start request is in effect.
func (c *Collector) Initialized() bool { return c.initialized.Load() }

// Paused reports whether event generation is paused.
func (c *Collector) Paused() bool { return c.paused.Load() }

// BindThread installs ti as the current descriptor for its thread
// number. The runtime calls this when threads are created and when the
// master switches between its serial and parallel descriptors; the
// per-region rebind is the fast path (read lock plus an atomic slot
// store), and the slot store is all it does: binding never touches the
// descriptor's trace buffer, which only an attached tool sets.
func (c *Collector) BindThread(ti *ThreadInfo) {
	c.threadMu.RLock()
	slot := c.threads[ti.ID]
	c.threadMu.RUnlock()
	if slot == nil {
		c.threadMu.Lock()
		slot = c.threads[ti.ID]
		if slot == nil {
			slot = new(atomic.Pointer[ThreadInfo])
			c.threads[ti.ID] = slot
		}
		c.threadMu.Unlock()
	}
	slot.Store(ti)
}

// UnbindThread removes the descriptor binding for thread id.
func (c *Collector) UnbindThread(id int32) {
	c.threadMu.Lock()
	delete(c.threads, id)
	c.threadMu.Unlock()
}

// Thread returns the current descriptor for thread id, or nil.
func (c *Collector) Thread(id int32) *ThreadInfo {
	c.threadMu.RLock()
	slot := c.threads[id]
	c.threadMu.RUnlock()
	if slot == nil {
		return nil
	}
	return slot.Load()
}

// Threads returns a snapshot of every currently bound descriptor. A
// tool attaching mid-run uses it to register a trace buffer for each
// thread number already bound, so a thread that records nothing still
// has one.
func (c *Collector) Threads() []*ThreadInfo {
	c.threadMu.RLock()
	defer c.threadMu.RUnlock()
	out := make([]*ThreadInfo, 0, len(c.threads))
	for _, slot := range c.threads {
		if ti := slot.Load(); ti != nil {
			out = append(out, ti)
		}
	}
	return out
}

// Event dispatches an event notification for thread t. This is the
// __ompc_event of the paper. The ordering of the checks is important:
// the callback pointer is tested first so that unregistered events —
// the common case when no tool is attached — cost one atomic load and
// no further checking.
func (c *Collector) Event(t *ThreadInfo, e Event) {
	if c.callbacks[e].Load() == nil {
		return
	}
	if !c.initialized.Load() || c.paused.Load() {
		return
	}
	c.dispatch(t, e)
}

// dispatch runs the registered callback with the dispatch marked in
// flight in t's own slot, so Quiesce can wait out dispatches racing an
// unregister. Marking it is the one fence of a dispatch: a
// sequentially consistent store of the slot's in-flight word, ordered
// before the callback is loaded again. A dispatch that loses the race
// against Store(nil) either sees nil here and backs out, or had its
// word (and, at its first dispatch, its place in dispatchers) ordered
// before the unregistering thread's subsequent Quiesce loads, so
// Quiesce never misses a running callback. The count and the exit are
// the slot owner's release stores. The callback itself runs behind the
// fault-isolation boundary (health.go): panics are contained, and with
// a watchdog budget armed, sampled dispatches are timed.
func (c *Collector) dispatch(t *ThreadInfo, e Event) {
	s := &t.dispatch
	if s.col != c {
		c.enlist(t)
	}
	prev := s.word // only this thread stores the word
	atomic.StoreUint64(&s.word, (prev>>32+1)<<32|uint64(e))
	if cb := c.callbacks[e].Load(); cb != nil {
		n := s.counts[e] + 1
		relstore.Store64(&s.counts[e], n)
		if b := c.budget.Load(); b > 0 && n&c.sampleMask == 0 {
			c.invokeTimed(cb, e, t, b)
		} else {
			c.invoke(cb, e, t)
		}
	}
	relstore.Store64(&s.word, prev)
}

// enlist adds t to the descriptors this collector counts and scans.
// It runs once per descriptor, at its first dispatch, before the
// dispatch marks itself in flight.
func (c *Collector) enlist(t *ThreadInfo) {
	c.dispatchMu.Lock()
	old := *c.dispatchers.Load()
	list := append(old[:len(old):len(old)], t)
	c.dispatchers.Store(&list)
	t.dispatch.col = c
	c.dispatchMu.Unlock()
}

// Quiesce blocks until no event callback is executing. Callers must
// first unregister the events (or pause/stop the collector) so no new
// dispatch can start; Quiesce then waits out the ones already past
// the registration check. A detaching tool uses this to make its
// final buffer drains race-free against callback appends. For a
// deadline-bounded variant that survives a wedged callback, see
// QuiesceWithin.
func (c *Collector) Quiesce() {
	for !c.quiescent() {
		runtime.Gosched()
	}
}

// EventCount returns the number of notifications dispatched for e
// since the collector was created.
func (c *Collector) EventCount(e Event) uint64 {
	if !e.Valid() {
		return 0
	}
	var n uint64
	for _, t := range *c.dispatchers.Load() {
		n += atomic.LoadUint64(&t.dispatch.counts[e])
	}
	return n
}

// NewCallbackHandle registers cb and returns a handle suitable for a
// ReqRegister payload. Handles remain valid until released.
func (c *Collector) NewCallbackHandle(cb Callback) uint64 {
	c.handleMu.Lock()
	defer c.handleMu.Unlock()
	c.handleSeq++
	h := c.handleSeq
	c.handles[h] = cb
	return h
}

// ReleaseCallbackHandle invalidates a handle returned by
// NewCallbackHandle.
func (c *Collector) ReleaseCallbackHandle(h uint64) {
	c.handleMu.Lock()
	delete(c.handles, h)
	c.handleMu.Unlock()
}

func (c *Collector) resolveHandle(h uint64) (Callback, bool) {
	c.handleMu.Lock()
	cb, ok := c.handles[h]
	c.handleMu.Unlock()
	return cb, ok
}

// API is the single entry point of the interface ("int
// omp_collector_api(void *arg)"): it processes the request entries in
// arg through the collector's default queue. Tools that issue requests
// from several of their own threads should obtain private queues with
// NewQueue to avoid serializing on this one.
func (c *Collector) API(arg []byte) int {
	return c.defaultQ.Submit(arg)
}

// NewQueue returns a request queue associated with one collector-tool
// thread. Requests submitted to distinct queues contend only on the
// shared state they actually touch, not on a global queue lock — the
// design §IV-B adopts to avoid contention.
func (c *Collector) NewQueue() *Queue { return c.queueMaker() }

// process handles one parsed request and returns its error code.
func (c *Collector) process(req *Request) ErrorCode {
	switch req.Kind {
	case ReqStart:
		// Two start requests without an intervening stop are "out of
		// sync".
		if !c.initialized.CompareAndSwap(false, true) {
			return ErrSequence
		}
		c.paused.Store(false)
		return ErrOK

	case ReqStop:
		if !c.initialized.CompareAndSwap(true, false) {
			return ErrSequence
		}
		// Stopping clears the registrations so a later start begins
		// from a clean table.
		for i := range c.callbacks {
			c.regLocks[i].Lock()
			c.callbacks[i].Store(nil)
			c.regLocks[i].Unlock()
		}
		c.paused.Store(false)
		return ErrOK

	case ReqPause:
		if !c.initialized.Load() {
			return ErrSequence
		}
		c.paused.Store(true)
		return ErrOK

	case ReqResume:
		if !c.initialized.Load() {
			return ErrSequence
		}
		c.paused.Store(false)
		return ErrOK

	case ReqRegister:
		if !c.initialized.Load() {
			return ErrSequence
		}
		e, h, ok := DecodeRegister(req.Mem)
		if !ok || !e.Valid() {
			return ErrBadRequest
		}
		cb, ok := c.resolveHandle(h)
		if !ok {
			return ErrBadRequest
		}
		c.register(e, cb)
		return ErrOK

	case ReqUnregister:
		if !c.initialized.Load() {
			return ErrSequence
		}
		e, ok := DecodeUnregister(req.Mem)
		if !ok || !e.Valid() {
			return ErrBadRequest
		}
		c.unregister(e)
		return ErrOK

	case ReqState:
		// State queries are honored at any point of program execution,
		// even before start: state tracking is always on.
		if len(req.Mem) < StatePayloadSize {
			return ErrMemTooSmall
		}
		ti := c.Thread(int32(leU32(req.Mem[0:])))
		if ti == nil {
			return ErrThread
		}
		st := ti.State()
		putU32(req.Mem[4:], uint32(st))
		putU64(req.Mem[8:], ti.WaitID(st.Wait()))
		req.SetResponseSize(12)
		return ErrOK

	case ReqCurrentPRID, ReqParentPRID:
		if len(req.Mem) < PRIDPayloadSize {
			return ErrMemTooSmall
		}
		ti := c.Thread(int32(leU32(req.Mem[0:])))
		if ti == nil {
			return ErrThread
		}
		team := ti.Team()
		// When a thread is outside a parallel region (serial or idle
		// state, no team), the runtime returns an out-of-sequence
		// error code and an ID of zero.
		if team == nil {
			putU64(req.Mem[4:], 0)
			req.SetResponseSize(8)
			return ErrSequence
		}
		// The runtime may be starting the team's next region meanwhile
		// (TeamInfo): the loads are atomic, as its stores are.
		id := atomic.LoadUint64(&team.RegionID)
		if req.Kind == ReqParentPRID {
			id = atomic.LoadUint64(&team.ParentRegionID)
		}
		putU64(req.Mem[4:], id)
		req.SetResponseSize(8)
		return ErrOK

	default:
		if req.Kind.Valid() {
			return ErrUnsupported
		}
		return ErrBadRequest
	}
}

func (c *Collector) register(e Event, cb Callback) {
	// Each table entry has a lock associated with it so that multiple
	// threads registering the same event with different callbacks do
	// not race; all threads share the resulting callback set.
	c.regLocks[e].Lock()
	if cb == nil {
		c.callbacks[e].Store(nil)
	} else {
		c.callbacks[e].Store(&cb)
	}
	c.regLocks[e].Unlock()
}

func (c *Collector) unregister(e Event) { c.register(e, nil) }

// Registered reports whether event e currently has a callback.
func (c *Collector) Registered(e Event) bool {
	return e.Valid() && c.callbacks[e].Load() != nil
}
