package collector

import (
	"sync/atomic"

	"goomp/internal/perf"
)

// TeamInfo is the part of an OpenMP thread-team descriptor the
// collector interface exposes: the ID of the parallel region the team
// is executing and the ID of its parent region. A team of threads
// executes a parallel region and the mapping is one-to-one, so the
// runtime keeps one TeamInfo in each team and updates it each time the
// team starts a region (Start); it is valid while the thread is in that
// region. For a non-nested region the parent region ID is always zero;
// for a nested region it is the current region ID of the team that
// spawned this one.
//
// The two IDs are what another thread may ask for (ReqCurrentPRID,
// ReqParentPRID), so Start stores them atomically and such a reader
// loads them atomically. The team's own threads, and tools in their
// callbacks, read every field directly: the region's start is ordered
// before their entry into it.
type TeamInfo struct {
	RegionID       uint64
	ParentRegionID uint64
	Size           int32 // number of threads in the team

	// SitePC identifies the static parallel region (the address of the
	// outlined procedure in the paper's system; the rt.Parallel call
	// site here). Tools use it to distinguish invocations of the same
	// parallel region — the selective-collection optimization §VI
	// proposes for controlling runtime overheads.
	SitePC uintptr
}

// Start describes the region the team starts: its ID, its parent's,
// the team's size and the region's site. The runtime calls it before
// any thread enters the region.
func (t *TeamInfo) Start(region, parent uint64, size int32, site uintptr) {
	atomic.StoreUint64(&t.RegionID, region)
	atomic.StoreUint64(&t.ParentRegionID, parent)
	t.Size, t.SitePC = size, site
}

// ThreadInfo is the collector-visible slice of an OpenMP thread
// descriptor: the data structure the runtime keeps to manage each
// OpenMP thread. State tracking writes one word per transition, cheap
// enough to keep always on (the paper's design decision: no
// conditionals checking collector status on state stores). All fields
// are updated with atomic operations so a collector may sample any
// thread asynchronously.
type ThreadInfo struct {
	// ID is the global OpenMP thread number (master is 0). The master
	// thread has two descriptors — one for serial mode, one for
	// parallel mode — because a tool may initialize the collector API
	// before the OpenMP runtime itself is initialized; both carry ID 0.
	ID int32

	state atomic.Int32

	// Per-thread wait IDs, incremented each time the thread enters the
	// corresponding wait. Indexed by WaitKind (entry 0, WaitNone, is
	// unused). Each thread keeps track of its own wait IDs, so the
	// counters are thread-private and uncontended.
	waitIDs [numWaitKinds]atomic.Uint64

	// loopID increments each time the thread enters a worksharing
	// loop (the loop-events extension): a tool can relate a loop to
	// its closing implicit barrier by pairing the loop ID with the
	// barrier wait ID that follows it.
	loopID atomic.Uint64

	team atomic.Pointer[TeamInfo]

	// stealVictim holds the thread ID of the victim of the most recent
	// steal performed by this thread, or -1 when the thread has never
	// stolen. The runtime stores the victim immediately before
	// dispatching EventChunkSteal/EventTaskSteal, so a callback reads
	// the victim from the *thief's* descriptor while the event ID
	// identifies the transfer kind.
	stealVictim atomic.Int32

	// buffer is the descriptor-pinned trace buffer of an attached
	// tool's measurement hot path: the tool installs the thread's
	// single-writer buffer here at the descriptor's first event, so
	// each later event costs one pointer load and one append — no map
	// lookup, no lock.
	buffer atomic.Pointer[perf.TraceBuffer]

	dispatch dispatchSlot
}

// dispatchSlot is the collector's dispatch bookkeeping for the
// descriptor's thread (Collector.dispatch). Only that thread stores to
// it, so it needs no locked instruction but the entry's one fence;
// other threads only load it, when they count events or quiesce, and
// the padding keeps the thread's stores off their lines and off its
// neighbours'. The words are plain integers because relstore stores
// through a pointer; every other access is a sync/atomic load.
type dispatchSlot struct {
	_ [cacheLinePad]byte

	// col is the collector whose dispatchers list the descriptor,
	// set at its first dispatch through it.
	col *Collector

	// word is the dispatch in flight: how many (a callback may
	// dispatch again on its own thread) in the high 32 bits, the
	// innermost one's event in the low 32.
	word uint64

	// counts tallies dispatched notifications per event.
	counts [NumEvents]uint64

	_ [cacheLinePad]byte
}

// cacheLinePad is the width of a cache line.
const cacheLinePad = 64

// SetTraceBuffer pins (or, with nil, unpins) a trace buffer on the
// descriptor. The attached tool pins from its callback, on the
// descriptor's own thread at its first event, and unpins at detach.
func (t *ThreadInfo) SetTraceBuffer(b *perf.TraceBuffer) { t.buffer.Store(b) }

// TraceBuffer returns the pinned trace buffer, or nil when no tool has
// claimed the descriptor.
func (t *ThreadInfo) TraceBuffer() *perf.TraceBuffer { return t.buffer.Load() }

// EnterLoop increments and returns the thread's worksharing-loop ID.
func (t *ThreadInfo) EnterLoop() uint64 { return t.loopID.Add(1) }

// LoopID returns the current worksharing-loop ID.
func (t *ThreadInfo) LoopID() uint64 { return t.loopID.Load() }

// NewThreadInfo returns a descriptor for thread id. Per the paper's
// get-state guarantee (§IV-D), the state is initialized to
// THR_OVHD_STATE so any thread always has a state associated with it —
// slave descriptors are created while the slave itself is still being
// created, and the overhead state reflects that.
func NewThreadInfo(id int32) *ThreadInfo {
	t := &ThreadInfo{ID: id}
	t.state.Store(int32(StateOverhead))
	t.stealVictim.Store(-1)
	return t
}

// SetStealVictim publishes the victim thread ID of a steal this thread
// is about to report via EventChunkSteal/EventTaskSteal.
func (t *ThreadInfo) SetStealVictim(victim int32) { t.stealVictim.Store(victim) }

// StealVictim returns the victim thread ID of this thread's most recent
// steal, or -1 if it has never stolen.
func (t *ThreadInfo) StealVictim() int32 { return t.stealVictim.Load() }

// SetState records that the thread entered state s. This is the
// __ompc_set_state of the paper: a single assignment to the private
// thread descriptor, performed unconditionally.
func (t *ThreadInfo) SetState(s State) { t.state.Store(int32(s)) }

// State returns the thread's current state.
func (t *ThreadInfo) State() State { return State(t.state.Load()) }

// EnterWait increments the wait ID associated with state s and then
// sets the state. It returns the new wait ID. States without an
// associated wait ID only store the state and return zero.
func (t *ThreadInfo) EnterWait(s State) uint64 {
	var id uint64
	if k := s.Wait(); k != WaitNone {
		id = t.waitIDs[k].Add(1)
	}
	t.state.Store(int32(s))
	return id
}

// WaitID returns the current value of the thread's wait ID of kind k.
func (t *ThreadInfo) WaitID(k WaitKind) uint64 {
	if k <= WaitNone || int32(k) >= numWaitKinds {
		return 0
	}
	return t.waitIDs[k].Load()
}

// SetTeam installs the team descriptor for the region the thread is
// about to execute; the runtime calls it at fork and clears it (nil)
// after join for slave threads.
func (t *ThreadInfo) SetTeam(info *TeamInfo) { t.team.Store(info) }

// Team returns the thread's current team descriptor, or nil when the
// thread is outside any parallel region.
func (t *ThreadInfo) Team() *TeamInfo { return t.team.Load() }
