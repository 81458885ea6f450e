// Package omp implements an OpenMP-style fork-join runtime library: the
// substrate the OpenMP Collector API lives in. It is the Go counterpart
// of the OpenUH OpenMP runtime the paper instruments — a persistent pool
// of worker "threads" (goroutines) that sleep between parallel regions,
// a fork entry point that packages region bodies the way OpenUH's
// compiler outlining does (the body closure plays the role of the
// outlined procedure __ompdo_main1), worksharing loop schedulers,
// implicit and explicit barriers, user locks, named critical regions,
// reductions, ordered sections, single/master constructs and atomic
// updates.
//
// Every construct calls into goomp/internal/collector at the same
// points OpenUH's runtime calls __ompc_event and __ompc_set_state, so a
// collector tool observes fork/join, barrier, wait and idle events and
// may asynchronously query thread states, wait IDs and parallel region
// IDs.
package omp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/collector"
	"goomp/internal/dl"
	"goomp/internal/perf"
)

// Config holds the runtime's internal control variables (the OpenMP
// ICVs that matter here) and implementation toggles.
type Config struct {
	// NumThreads is the default team size for parallel regions. It is
	// also the initial worker-pool size; the pool grows on demand when
	// a region requests more threads, mirroring the paper's dynamic
	// thread-count handling (§IV-C.1).
	NumThreads int

	// Nested enables true nested parallel regions with their own teams,
	// fork events and parent-region IDs. When false (the default, and
	// the paper's behaviour), nested regions are serialized: the
	// encountering thread runs the region as a team of one and no fork
	// event is triggered.
	Nested bool

	// AtomicEvents enables THR_BEGIN/END_ATWT events and the atomic
	// wait state. The paper's implementation omitted these because of
	// their overhead; they are off by default here for the same reason.
	AtomicEvents bool

	// LoopEvents enables the worksharing-loop extension events
	// (OMP_EVENT_THR_BEGIN/END_LOOP) and per-thread loop IDs, the
	// loop-construct support the paper's §VI calls for. Off by
	// default: loops are frequent, so the events are opt-in.
	LoopEvents bool

	// SpinBarrier selects the active wait policy
	// (OMP_WAIT_POLICY=active): barrier waiters spin for a larger
	// bounded budget (4096 flag checks, passive 256) before parking.
	// The waiter always parks eventually, so oversubscribed teams
	// cannot live-lock.
	SpinBarrier bool

	// Schedule and Chunk are the ICVs consulted by ScheduleRuntime
	// loops.
	Schedule Schedule
	Chunk    int

	// CallbackBudget arms the collector's callback watchdog: a sampled
	// event dispatch that observes a tool callback running longer than
	// this budget trips a circuit breaker that pauses event generation.
	// Zero (the default) disarms the watchdog.
	CallbackBudget time.Duration

	// WatchdogSample is the watchdog's dispatch-sampling interval: one
	// dispatch in this many (per event, rounded up to a power of two)
	// is timed. Zero keeps the collector default; 1 times every
	// dispatch.
	WatchdogSample int
}

// RT is an OpenMP runtime instance: a thread pool, its collector, and
// the bookkeeping for parallel-region IDs and region-call statistics.
type RT struct {
	cfg Config
	col *collector.Collector
	seq uint64 // process-wide instance number for supervision labels

	mu      sync.Mutex // guards pool growth and shutdown
	workers []*worker  // slaves; global thread i is workers[i-1]
	closed  bool

	// The master thread is the only thread that can run in both serial
	// and parallel mode, so it has two thread descriptors; the
	// collector binding switches between them at fork and join.
	masterSerial   *collector.ThreadInfo
	masterParallel *collector.ThreadInfo

	regionSeq   atomic.Uint64 // parallel region ID generator (IDs start at 1)
	regionCalls atomic.Uint64 // dynamic count of top-level region invocations

	siteMu sync.Mutex
	sites  map[uintptr]*RegionSite

	// nestedFree pools the transient descriptors of true-nested team
	// threads, keyed by thread number within the nested team. Reusing
	// descriptors keeps per-descriptor measurement state (the trace
	// buffer an attached tool pins at first event) bounded by the peak
	// number of concurrent nested threads instead of growing with
	// every nested region invocation.
	nestedMu   sync.Mutex
	nestedFree map[int32][]*collector.ThreadInfo

	// teamFree pools joined teams by size: the last member to leave a
	// region puts its team here (Team.leave) and the next fork of that
	// size takes it back (getTeam), team descriptor included, so a
	// steady-state region allocates nothing.
	teamMu   sync.Mutex
	teamFree map[int][]*Team

	symbol   string // dl symbol this runtime registered, if any
	critMu   sync.Mutex
	critical map[string]*Lock
}

// RegionSite records one static parallel region: the source location of
// the rt.Parallel call, or of the tc.Parallel call for a Nested one,
// standing in for the address of the compiler's outlined procedure.
// The per-site call counts of the non-nested sites generate Table I.
type RegionSite struct {
	PC     uintptr
	File   string
	Line   int
	Calls  uint64
	Nested bool
}

// New creates a runtime with the given configuration. A zero or
// negative NumThreads defaults to runtime.NumCPU(). The worker pool is
// created lazily at the first parallel region, as in OpenUH where
// threads are created when the first region is encountered.
func New(cfg Config) *RT {
	if cfg.NumThreads <= 0 {
		cfg.NumThreads = runtime.NumCPU()
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 1
	}
	var colOpts []collector.Option
	if cfg.CallbackBudget > 0 {
		colOpts = append(colOpts, collector.WithCallbackBudget(cfg.CallbackBudget))
	}
	if cfg.WatchdogSample > 0 {
		colOpts = append(colOpts, collector.WithWatchdogSampling(cfg.WatchdogSample))
	}
	r := &RT{
		cfg:        cfg,
		seq:        rtSeq.Add(1),
		col:        collector.New(colOpts...),
		sites:      make(map[uintptr]*RegionSite),
		critical:   make(map[string]*Lock),
		nestedFree: make(map[int32][]*collector.ThreadInfo),
		teamFree:   make(map[int][]*Team),
	}
	// The serial-mode master descriptor exists from runtime creation so
	// that a tool may initialize the collector API before the OpenMP
	// runtime itself has created any threads.
	r.masterSerial = collector.NewThreadInfo(0)
	r.masterSerial.SetState(collector.StateSerial)
	r.masterParallel = collector.NewThreadInfo(0)
	r.col.BindThread(r.masterSerial)
	return r
}

// Collector returns the runtime's collector-API instance (what a tool
// obtains by looking up the exported symbol).
func (r *RT) Collector() *collector.Collector { return r.col }

// MasterDescriptors returns the master thread's two thread
// descriptors: the serial-mode one (bound outside parallel regions)
// and the parallel-mode one (bound while the master executes a region,
// and the holder of the master's wait IDs).
func (r *RT) MasterDescriptors() (serial, parallel *collector.ThreadInfo) {
	return r.masterSerial, r.masterParallel
}

// Config returns the runtime's configuration.
func (r *RT) Config() Config { return r.cfg }

// RegisterSymbol exports the collector API in the simulated dynamic
// linker under collector.SymbolName, as OpenUH's runtime library
// exports __omp_collector_api. Only one runtime per process can hold
// the symbol; Close releases it.
func (r *RT) RegisterSymbol() error {
	if err := dl.Register(collector.SymbolName, r.col); err != nil {
		return err
	}
	r.symbol = collector.SymbolName
	return nil
}

// Close shuts the worker pool down and releases the dl symbol. The
// runtime must not be inside a parallel region.
func (r *RT) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	ws := r.workers
	r.workers = nil
	r.mu.Unlock()
	for _, w := range ws {
		close(w.work)
		r.col.UnbindThread(w.td.ID)
	}
	if r.symbol != "" {
		dl.Unregister(r.symbol)
		r.symbol = ""
	}
}

// RegionCalls returns the dynamic number of (non-nested) parallel
// region invocations so far.
func (r *RT) RegionCalls() uint64 { return r.regionCalls.Load() }

// Sites returns a snapshot of the static parallel regions encountered
// so far, nested ones included, sorted by file and line. Over the
// non-nested sites, their count is the "# parallel regions" column of
// Table I and their summed Calls is "# region calls".
func (r *RT) Sites() []RegionSite {
	r.siteMu.Lock()
	out := make([]RegionSite, 0, len(r.sites))
	for _, s := range r.sites {
		out = append(out, *s)
	}
	r.siteMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// ResetStats clears the region-call statistics (the sites map and the
// dynamic counters), for harnesses that run warmup iterations.
func (r *RT) ResetStats() {
	r.siteMu.Lock()
	r.sites = make(map[uintptr]*RegionSite)
	r.siteMu.Unlock()
	r.regionCalls.Store(0)
}

func (r *RT) noteSite(pc uintptr, nested bool) {
	r.siteMu.Lock()
	s := r.sites[pc]
	if s == nil {
		// pc is a return address: resolved as a frame it is the line of
		// the call, where FuncForPC(pc).FileLine(pc) names whatever the
		// instruction after the call belongs to — the next statement, or
		// the header of the enclosing loop.
		file, line := "?", 0
		if fr := perf.Resolve([]uintptr{pc})[0]; fr.File != "" {
			file, line = fr.File, fr.Line
		}
		s = &RegionSite{PC: pc, File: file, Line: line, Nested: nested}
		r.sites[pc] = s
	}
	s.Calls++
	r.siteMu.Unlock()
}

// ensureWorkers grows the pool so at least n-1 slaves exist. Called
// with the fork event already raised: in the paper the fork event is
// triggered just before pthread_create when the runtime needs to create
// threads.
func (r *RT) ensureWorkers(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		panic("omp: parallel region on closed runtime")
	}
	for id := len(r.workers) + 1; id < n; id++ {
		w := &worker{
			rt:   r,
			td:   collector.NewThreadInfo(int32(id)),
			work: make(chan workItem, 1),
		}
		// The descriptor is set up (in the overhead state) just before
		// the thread is created, so a state query during creation still
		// gets a correct answer.
		r.col.BindThread(w.td)
		r.workers = append(r.workers, w)
		go w.loop()
	}
}

// Parallel runs fn as a parallel region on the default team size. It
// must be called from serial (non-region) context; inside a region use
// ThreadCtx.Parallel for a nested region.
//
// The entry points are never inlined: each is the frame walkSite
// skips, so the region's site is the user's call of it.
//
//go:noinline
func (r *RT) Parallel(fn func(tc *ThreadCtx)) {
	r.fork(nil, walkSite(), 0, fn, parFor{})
}

// ParallelN runs fn as a parallel region with a team of n threads
// (n <= 0 means the configured default).
//
//go:noinline
func (r *RT) ParallelN(n int, fn func(tc *ThreadCtx)) {
	r.fork(nil, walkSite(), n, fn, parFor{})
}

// ParallelFor is the combined "parallel for" construct: it forks a team
// and statically distributes iterations [0, n) over it.
//
//go:noinline
func (r *RT) ParallelFor(n int, body func(tc *ThreadCtx, i int)) {
	r.fork(nil, walkSite(), 0, parallelFor, parFor{n: n, body: body})
}

// parFor is a combined parallel-for's loop: its trip count and body.
// fork leaves it on the team, where every member's parallelFor reads
// it, so no closure over them is made per region.
type parFor struct {
	n    int
	body func(tc *ThreadCtx, i int)
}

// parallelFor is the region body of ParallelFor.
func parallelFor(tc *ThreadCtx) {
	pf := tc.team.pfor
	tc.For(pf.n, func(i int) { pf.body(tc, i) })
}

// walkSite is the one walk a region's entry makes, called directly by
// the exported entry point: it skips its own frame and that entry
// point's, so the PC it returns is the user's call, the region's site.
// A tool that records the region's join walks its own stack in the
// join callback and stores the path from this PC on.
//
//go:noinline
func walkSite() uintptr {
	var site [1]uintptr // stays zero if there is no caller to find
	perf.Callers(2, site[:])
	return site[0]
}

// fork is __ompc_fork, the one bracket every parallel region enters
// and leaves through. The encountering thread packages the region,
// starts the rest of the team, executes the region itself as thread 0,
// and joins at the implicit barrier that ends the region. parent is
// the encountering thread's context for a nested region and nil for a
// top-level one; pf is the loop of a combined parallel-for, for fn to
// find on the team.
func (r *RT) fork(parent *ThreadCtx, site uintptr, n int, fn func(tc *ThreadCtx), pf parFor) {
	enc, level, parentID := r.masterSerial, 1, uint64(0)
	if parent == nil {
		r.regionCalls.Add(1)
	} else {
		enc, level, parentID = parent.td, parent.level+1, parent.team.info.RegionID
		if !r.cfg.Nested {
			n = 1
		}
	}
	if n <= 0 {
		n = r.cfg.NumThreads
	}
	// Conceptually there is a fork at the beginning of each parallel
	// region even when no new threads are created, so the fork event is
	// triggered on every region entry, before any thread creation. A
	// serialized nested region (a team of one) raises neither event, as
	// the paper's compiler translates it.
	events := parent == nil || n > 1

	// The encountering thread is in the overhead state while it
	// prepares the fork: this happens whether or not a collector is
	// attached (state tracking is always on).
	prevTeam, prevState := enc.Team(), enc.State()
	enc.SetState(collector.StateOverhead)
	r.noteSite(site, parent != nil)

	// The team descriptor is on the encountering descriptor before the
	// fork event and stays there until after the join event, so both
	// events (and any query made from their callbacks) see the region,
	// its parent and its site.
	team := r.getTeam(n, parentID, site)
	team.pfor = pf
	info := &team.info
	enc.SetTeam(info)
	if events {
		r.col.Event(enc, collector.EventFork)
	}

	td := enc
	if parent == nil {
		// Wake the slaves: the master updates the slave thread
		// descriptors with the outlined procedure while in the overhead
		// state.
		r.ensureWorkers(n)
		for i := 1; i < n; i++ {
			r.workers[i-1].work <- workItem{team: team, tid: i, fn: fn}
		}
		// The master switches to its parallel-mode descriptor and runs
		// the region as thread 0. This per-region rebind is on the fork
		// hot path: BindThread stores into an existing descriptor slot
		// under a read lock and does nothing else (an attached tool pins
		// a descriptor's trace buffer from its own callback).
		td = r.masterParallel
		td.SetState(collector.StateOverhead)
		td.SetTeam(info)
		r.col.BindThread(td)
		// The serial-mode descriptor leaves region scope once the
		// parallel-mode descriptor takes over.
		enc.SetTeam(nil)
	} else if n > 1 {
		r.startNested(parent, team, fn)
	}

	runMember(team.member(0, td, level, parent), fn)
	team.wg.Wait() // the nested goroutines, if any

	// Join: as soon as thread 0 leaves the implicit barrier at the end
	// of the region its state is set to the overhead state and the join
	// event is triggered, with the region's team still set.
	td.SetState(collector.StateOverhead)
	if events {
		r.col.Event(td, collector.EventJoin)
	}
	td.SetTeam(prevTeam)
	if td != enc {
		r.col.BindThread(enc)
	}
	enc.SetState(prevState)

	// A panic raised by any thread's region body is re-raised on the
	// encountering thread once the fork-join structure has been
	// restored.
	if p := team.firstPanic(); p != nil {
		panic(p)
	}
	team.leave()
}

// startNested starts threads 1..n-1 of a true-nested team as transient
// goroutines; thread 0 waits for them on team.wg before the join. What
// the goroutines capture lives on the heap, so it is captured here,
// not in fork, where a top-level region would pay for it too.
func (r *RT) startNested(parent *ThreadCtx, team *Team, fn func(tc *ThreadCtx)) {
	team.wg.Add(team.size - 1)
	for i := 1; i < team.size; i++ {
		go func(tid int) {
			// Nested slaves are transient goroutines with pooled
			// descriptors; they are not bound in the collector's global
			// thread table (their IDs would collide with the flat
			// numbering), but carry team info for region-ID queries.
			td := r.getNestedDesc(int32(tid))
			runMember(team.member(tid, td, parent.level+1, parent), fn)
			r.putNestedDesc(td)
			// Done before leave: once this thread has left, the team
			// may already serve another region and another wait.
			team.wg.Done()
			team.leave()
		}(i)
	}
}

// runMember is one thread's part of a region, whichever way the thread
// joined the team: it enters the region, runs the body and meets the
// rest of the team at the closing implicit barrier.
func runMember(tc *ThreadCtx, fn func(tc *ThreadCtx)) {
	tc.td.SetTeam(&tc.team.info)
	tc.td.SetState(collector.StateWorking)
	runRegionBody(tc, fn)
	tc.implicitBarrier()
}

// worker is a slave OpenMP thread: a goroutine that survives, sleeping,
// between non-nested parallel regions.
type worker struct {
	rt   *RT
	td   *collector.ThreadInfo
	work chan workItem
}

type workItem struct {
	team *Team
	tid  int
	fn   func(tc *ThreadCtx)
}

func (w *worker) loop() {
	col := w.rt.col
	// As soon as the thread is created it is set to the idle state and
	// the begin-idle event triggers.
	w.td.SetState(collector.StateIdle)
	col.Event(w.td, collector.EventThrBeginIdle)

	for item := range w.work {
		col.Event(w.td, collector.EventThrEndIdle)
		runMember(item.team.member(item.tid, w.td, 1, nil), item.fn)
		// Off the team before leaving it: once the last member has left,
		// the next region may describe itself in the same TeamInfo.
		w.td.SetTeam(nil)
		item.team.leave()
		w.td.SetState(collector.StateIdle)
		col.Event(w.td, collector.EventThrBeginIdle)
	}
}

// ThreadCtx is the per-thread view of a parallel region: the explicit
// stand-in for the gtid argument and thread-local runtime state the
// compiler passes to an outlined procedure.
type ThreadCtx struct {
	rt   *RT
	team *Team
	id   int
	td   *collector.ThreadInfo

	loopSeq   uint64 // worksharing construct counter (must match across the team)
	singleSeq uint64
	group     *taskGroup // children created by this context (lazily made)

	level  int        // nesting depth of active parallel regions (outermost is 1)
	parent *ThreadCtx // context of the encountering thread for nested regions

	slabel string // lazily cached hang-supervision label (superWho)

	// ord is the handle ForOrdered passes to its body: one per thread
	// suffices, since worksharing constructs do not nest within a team.
	ord Ordered
}

// ThreadNum returns the thread's number within its team (master is 0).
func (tc *ThreadCtx) ThreadNum() int { return tc.id }

// NumThreads returns the team size.
func (tc *ThreadCtx) NumThreads() int { return tc.team.size }

// RegionID returns the ID of the parallel region the thread is
// executing.
func (tc *ThreadCtx) RegionID() uint64 { return tc.team.info.RegionID }

// Info returns the thread's collector descriptor (for tools and tests).
func (tc *ThreadCtx) Info() *collector.ThreadInfo { return tc.td }

// Parallel executes a nested parallel region. By default nested
// regions are serialized — the encountering thread runs fn as a team of
// one and no fork event is triggered, matching the paper's compiler.
// With Config.Nested, a true nested team of n goroutines is created,
// a fork event is generated, and the nested team's parent region ID is
// the current region ID of the team that spawned it. Either way a
// panic in fn leaves the region as a *RegionPanic.
//
//go:noinline
func (tc *ThreadCtx) Parallel(n int, fn func(tc *ThreadCtx)) {
	tc.rt.fork(tc, walkSite(), n, fn, parFor{})
}

// getNestedDesc returns a descriptor for a true-nested team thread
// with number tid, reusing a pooled one when available. A pooled
// descriptor is handed to one goroutine at a time, so any measurement
// state pinned on it keeps a single writer.
func (r *RT) getNestedDesc(tid int32) *collector.ThreadInfo {
	r.nestedMu.Lock()
	if free := r.nestedFree[tid]; len(free) > 0 {
		td := free[len(free)-1]
		r.nestedFree[tid] = free[:len(free)-1]
		r.nestedMu.Unlock()
		td.SetState(collector.StateOverhead)
		return td
	}
	r.nestedMu.Unlock()
	return collector.NewThreadInfo(tid)
}

// putNestedDesc returns a transient descriptor to the pool once its
// nested region completes.
func (r *RT) putNestedDesc(td *collector.ThreadInfo) {
	td.SetTeam(nil)
	td.SetState(collector.StateIdle)
	r.nestedMu.Lock()
	r.nestedFree[td.ID] = append(r.nestedFree[td.ID], td)
	r.nestedMu.Unlock()
}

// String identifies the runtime in diagnostics.
func (r *RT) String() string {
	return fmt.Sprintf("omp.RT(threads=%d, nested=%v)", r.cfg.NumThreads, r.cfg.Nested)
}
