// Package tool implements the prototype performance measurement tool of
// the paper's §V: a collector that discovers the OpenMP runtime's
// collector API, initiates a start request, registers for the fork,
// join and implicit-barrier events, and stores a sample of a time
// counter in the callback invoked at each registered event. To
// estimate callstack-retrieval overheads it also records the call path
// of each join event. Like the paper's tool it unwinds in the join
// callback, by frame pointer (perf.Callers), and it stores the path
// from the region's call site on: the frames above the site are the
// runtime's, the collector's and the tool's own, the same at every
// join.
//
// The real tool is a shared object LD_PRELOADed into the target; here
// Attach plays the init section's role, querying the simulated dynamic
// linker for the collector-API symbol.
package tool

import (
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/collector"
	"goomp/internal/degrade"
	"goomp/internal/dl"
	"goomp/internal/obs"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/super"
)

// Options configures what the tool measures; the zero value registers
// the paper's default events with full measurement.
type Options struct {
	// Events to register; nil means fork, join and the implicit
	// barrier begin/end events, as in the paper's experiments.
	Events []collector.Event

	// Measure stores a counter sample per event. With Measure false
	// the callbacks still fire but store nothing, isolating the
	// callback/communication overhead from the measurement/storage
	// overhead — the decomposition experiment of §V-B.
	Measure bool

	// JoinStacks records the implementation-model call path of each
	// join event (requires Measure), walked in the callback and stored
	// from the region's call site to the root. A join raised with no
	// team (a driver of AttachCollector) is stored from the callback's
	// caller.
	JoinStacks bool

	// BufferCap preallocates the trace buffer of each thread bound at
	// attach (samples). A buffer first made inside a callback, at a
	// thread's first event, starts at one chunk and grows a chunk at a
	// time, so no callback pays for BufferCap samples at once.
	BufferCap int

	// BufferLimit bounds each per-thread buffer; 0 means unlimited.
	BufferLimit int

	// SamplePeriod, when nonzero, runs an asynchronous sampler that
	// polls every thread's state through the collector API at this
	// period and builds a state histogram. This exercises the
	// get-state request path from outside any OpenMP thread. Each tick
	// queries every thread bound in the collector's descriptor table at
	// that moment, so teams grown after attach are observed too.
	SamplePeriod time.Duration

	// ObsAddr, when set, serves the observability plane ("host:port";
	// ":0" picks a free port, readable via ObsURL) for the lifetime of
	// the attachment: /metrics, /healthz, /state and /profile, all fed
	// from the collector's existing lock-free counters and buffer
	// snapshots — nothing is added to the event hot path. Empty (the
	// default) serves nothing. cmd front-ends default it from
	// GOMP_OBS_ADDR.
	ObsAddr string

	// StreamDir, when set, streams trace chunks to per-thread files in
	// this directory during the run (write-behind storage with bounded
	// memory) instead of accumulating everything in memory. Read the
	// files back with perf.ReadTraceStream. While streaming, Report
	// sees only the not-yet-flushed residue of the buffers.
	StreamDir string

	// IngestAddr, when set, ships every staged trace block to a psxd
	// trace-ingestion daemon at this TCP "host:port" address over the
	// framed ingest wire protocol (package ingest). Off by default; cmd
	// front-ends default it from GOMP_INGEST_ADDR. With StreamDir also
	// set the network sink ships the exact bytes the file sink writes,
	// so the server's per-run directory is byte-identical to the local
	// one; with StreamDir empty the network is the only sink and the
	// sink's bounded queue is the in-memory retention path. A dead or
	// slow server never blocks a recording thread: the sink reconnects
	// with capped backoff, resends the unacknowledged tail, and drops
	// with exact accounting (Report's Ingest* counters) when retention
	// overflows.
	IngestAddr string

	// IngestRun names this run at the ingestion daemon (its per-run
	// directory). Empty derives "<host>-<pid>-<start-nanos>".
	IngestRun string

	// IngestDurable asks the daemon for durable acks (FlagDurable in
	// HELLO): a chunk leaves the sink's unacknowledged tail only after
	// the server's group commit has put it on disk, so a daemon crash
	// loses nothing — the reconnect resends exactly the unpersisted
	// tail. Off by default; cmd front-ends default it from
	// GOMP_INGEST_DURABLE.
	IngestDurable bool

	// OverheadCeiling arms the overhead governor: a target maximum for
	// profiling cost as a fraction of wall time, in (0, 1]. The
	// governor continuously self-measures (EWMA of record and sampler
	// nanoseconds against wall time) and enforces the ceiling by
	// stepping down a degradation ladder — shed low-value event
	// classes, then counters-only — stepping back up with hysteresis
	// when load recedes. Every transition is recorded as an
	// OMP_EVENT_GOVERNOR trace sample and exposed on the obs plane.
	// Zero (the default) disables governing. cmd front-ends default it
	// from GOMP_OVERHEAD_CEILING (a fraction like "0.02", or "2%").
	OverheadCeiling float64

	// GovernorTick overrides the governor's measurement period (default
	// 100ms).
	GovernorTick time.Duration

	// TraceCompress deflates each written trace block's payload with
	// compress/flate. Every block the tool writes — streamed chunks,
	// shipped chunks, WriteTraces snapshots, hang salvage — is in the
	// compact PSX2 format, encoded on the writer/streamer goroutine,
	// never on a recording thread; readers detect the format per block.
	// cmd front-ends default it from GOMP_TRACE_COMPRESS.
	TraceCompress bool

	// DialIngest overrides how the network sink dials the ingestion
	// daemon (fault injection and tests). Nil means net.DialTimeout.
	DialIngest func(addr string) (net.Conn, error)

	// IngestPendingDepth overrides how many unsent chunks the network
	// sink keeps in memory (fault injection and tests; chaos suites
	// shrink it to saturate the bound cheaply). Past it a chunk whose
	// block is in a StreamDir trace file is parked there, to be read
	// back and replayed in sequence order, and any other chunk is
	// dropped with accounting. Zero means the default 256.
	IngestPendingDepth int

	// MaxSamplesPerSite enables selective collection (§VI): after this
	// many stored samples for one static parallel region (identified
	// by the site PC in the team descriptor), further events from that
	// region are counted but not measured or stored. Zero disables
	// throttling. This bounds the measurement/storage cost — the
	// dominant overhead per the decomposition experiment — for codes
	// like LU-HP that invoke small regions hundreds of thousands of
	// times.
	MaxSamplesPerSite int

	// DetachTimeout bounds how long Detach waits for in-flight
	// callbacks to finish. Zero waits indefinitely. When the bounded
	// wait times out, Detach completes anyway: the wedged events are
	// recorded in the report and the final stream flush falls back to
	// concurrency-safe snapshots instead of buffer drains.
	DetachTimeout time.Duration

	// OpenTraceFile overrides how the streaming storage opens each
	// per-thread trace file (fault injection and tests). Nil means
	// os.Create.
	OpenTraceFile func(path string) (io.WriteCloser, error)

	// WrapCallback, when set, wraps the tool's event callback before
	// registration; the collector dispatches the wrapped callback
	// (fault injection).
	WrapCallback func(collector.Callback) collector.Callback

	// HangTimeout, when nonzero, starts the hang supervisor at attach:
	// every blocking wait in omp and mpi registers a wait record, and
	// after this long with no global progress the watchdog builds the
	// wait-for graph, prints a hang report (deadlock cycle or
	// no-progress verdict, per-thread wait sites, collector states),
	// force-detaches the tool so the gap-free trace prefix is salvaged
	// to disk, and — unless OnHang is set — exits with status 2, so a
	// hung run fails CI fast instead of timing the job out. Off by
	// default; cmd front-ends default it from GOMP_HANG_TIMEOUT. Only
	// one supervised tool may be attached per process.
	HangTimeout time.Duration

	// HangDir is where a tool that does not stream to files salvages
	// on a hang: an in-memory tool writes every per-thread trace there
	// as trace.N.psxt. The rendered report is written as hang.report
	// (perf.HangReportName) beside the traces: in StreamDir when that
	// is set, else here; empty both means the report goes to stderr
	// only.
	HangDir string

	// OnHang, when set, is called with the rendered hang report after
	// salvage, instead of the exit (tests).
	OnHang func(report string)
}

// DefaultEvents are the events the paper's prototype registers, plus
// the work-stealing extension events (cheap: they fire only when the
// scheduler actually rebalances).
func DefaultEvents() []collector.Event {
	return []collector.Event{
		collector.EventFork,
		collector.EventJoin,
		collector.EventThrBeginIBar,
		collector.EventThrEndIBar,
		collector.EventChunkSteal,
		collector.EventTaskSteal,
	}
}

// FullMeasurement returns the options used for the overhead figures:
// default events, measurement and join callstacks on.
func FullMeasurement() Options {
	return Options{Measure: true, JoinStacks: true}
}

// CallbacksOnly returns the options for the decomposition experiment's
// communication-only configuration.
func CallbacksOnly() Options {
	return Options{Measure: false}
}

// Tool is an attached collector.
type Tool struct {
	col  *collector.Collector
	q    *collector.Queue
	opts Options

	mu sync.Mutex // guards histogram

	// Buffer registry. The measurement hot path never touches it:
	// callbacks read the buffer pinned into the event's ThreadInfo
	// descriptor, which the callback itself pins at the descriptor's
	// first event (adoptDescriptor). byID holds the shared buffer of
	// each bound thread number; extras holds the governor's buffer and
	// the private ones of transient descriptors (true-nested team
	// threads reuse bound thread numbers concurrently, and buffers are
	// single-writer, so they must not share by ID). pinned lists every
	// descriptor holding one of our buffers so Detach can unpin them;
	// Detach then sets it to nil, and nothing is pinned after that.
	// bufMu guards all four.
	bufMu  sync.Mutex
	byID   []*perf.TraceBuffer
	extras []threadBuf
	pinned map[*collector.ThreadInfo]struct{}

	handles []uint64
	events  []collector.Event

	sampler     *sampler
	stream      *streamer
	gov         *degrade.Governor // nil unless Options.OverheadCeiling > 0
	govBuf      *perf.TraceBuffer // lazily created; written only by the governor's tick goroutine
	sup         *super.Supervisor
	hangText    atomic.Pointer[string]
	detachBound atomic.Int64 // ns; hang handler's cap on the quiesce wait
	obsSrv      *obs.Server
	obsMu       sync.Mutex // serializes obs handlers' protocol requests
	obsQ        *collector.Queue
	streamErr   atomic.Pointer[error]
	wedged      atomic.Pointer[[]collector.WedgedEvent]
	histogram   *perf.StateHistogram
	attachedAt  time.Time
	detachOnce  sync.Once
	throttle    *siteThrottle
}

// threadBuf pairs a buffer with the thread number it records for.
type threadBuf struct {
	id  int32
	buf *perf.TraceBuffer
}

// ErrNoCollector is returned when the target exports no collector API.
type ErrNoCollector struct{ Symbol string }

func (e *ErrNoCollector) Error() string {
	return fmt.Sprintf("tool: no collector API symbol %q in target", e.Symbol)
}

// Attach discovers the collector API through the dynamic linker and
// initializes it; it fails with *ErrNoCollector if the symbol is
// absent, as a real tool must degrade gracefully on runtimes without
// ORA support.
func Attach(opts Options) (*Tool, error) {
	sym, ok := dl.Lookup(collector.SymbolName)
	if !ok {
		return nil, &ErrNoCollector{Symbol: collector.SymbolName}
	}
	col, ok := sym.(*collector.Collector)
	if !ok {
		return nil, fmt.Errorf("tool: symbol %q has unexpected type %T",
			collector.SymbolName, sym)
	}
	return AttachCollector(col, opts)
}

// AttachRuntime attaches directly to a runtime instance, bypassing the
// symbol lookup; useful when several runtimes coexist (e.g. one per
// simulated MPI rank).
func AttachRuntime(rt *omp.RT, opts Options) (*Tool, error) {
	return AttachCollector(rt.Collector(), opts)
}

// AttachCollector initializes the given collector API instance: START,
// then one REGISTER per requested event — the sequence of the paper's
// Figure 3.
func AttachCollector(col *collector.Collector, opts Options) (*Tool, error) {
	if opts.BufferCap == 0 {
		opts.BufferCap = 1 << 12
	}
	t := &Tool{
		col:        col,
		q:          col.NewQueue(),
		opts:       opts,
		histogram:  perf.NewStateHistogram(),
		attachedAt: time.Now(),
		throttle:   newSiteThrottle(opts.MaxSamplesPerSite),
		pinned:     make(map[*collector.ThreadInfo]struct{}),
	}
	if ec := collector.Control(t.q, collector.ReqStart); ec != collector.ErrOK {
		return nil, fmt.Errorf("tool: start request failed: %v", ec)
	}
	if opts.OverheadCeiling != 0 {
		// Build the governor before the streamer so the network sink can
		// take backpressure signals through it; its ticker starts only
		// after the whole attach sequence is in place.
		g, err := degrade.New(degrade.Config{
			Ceiling:      opts.OverheadCeiling,
			Tick:         opts.GovernorTick,
			OnTransition: t.governorTransition,
		})
		if err != nil {
			t.Detach()
			return nil, err
		}
		t.gov = g
	}
	if opts.StreamDir != "" || opts.IngestAddr != "" {
		st, err := startStreamer(t, opts.StreamDir)
		if err != nil {
			t.Detach()
			return nil, err
		}
		t.stream = st
	}
	// Register a buffer for every thread number bound so far, so a
	// thread that records nothing still has a trace. Nothing is pinned
	// here: each descriptor pins its own at its first event.
	t.bufMu.Lock()
	for _, ti := range col.Threads() {
		if ti.ID >= 0 {
			t.boundBufferLocked(ti.ID, opts.BufferCap)
		}
	}
	t.bufMu.Unlock()
	events := opts.Events
	if events == nil {
		events = DefaultEvents()
	}
	t.events = events
	cb := collector.Callback(t.callback)
	if opts.WrapCallback != nil {
		cb = opts.WrapCallback(cb)
	}
	for _, e := range events {
		h := col.NewCallbackHandle(cb)
		t.handles = append(t.handles, h)
		if ec := collector.Register(t.q, e, h); ec != collector.ErrOK {
			t.Detach()
			return nil, fmt.Errorf("tool: register %v failed: %v", e, ec)
		}
	}
	if opts.SamplePeriod > 0 {
		t.sampler = startSampler(t, opts.SamplePeriod)
	}
	if opts.HangTimeout > 0 {
		sup, err := super.Start(super.Options{
			Timeout: opts.HangTimeout,
			OnHang:  t.hangDetected,
		})
		if err != nil {
			t.Detach()
			return nil, fmt.Errorf("tool: hang supervision: %w", err)
		}
		t.sup = sup
	}
	if opts.ObsAddr != "" {
		srv, err := t.startObs(opts.ObsAddr)
		if err != nil {
			t.Detach()
			return nil, err
		}
		t.obsSrv = srv
	}
	if t.gov != nil {
		t.gov.Start()
	}
	return t, nil
}

// ObsURL returns the observability plane's base URL, or "" when
// Options.ObsAddr was unset.
func (t *Tool) ObsURL() string {
	if t.obsSrv == nil {
		return ""
	}
	return t.obsSrv.URL()
}

// callback is invoked by the runtime on the event's thread. It is the
// measurement hot path: one counter read, one append, and for join
// events optionally a callstack capture.
func (t *Tool) callback(e collector.Event, ti *collector.ThreadInfo) {
	if !t.opts.Measure {
		return
	}
	// The governor gate costs one atomic load when armed, nothing when
	// off. Counters-only (and, one rung earlier, the shed event
	// classes) return before any measurement work: the collector's
	// dispatch counters remain the record of what happened.
	gov := t.gov
	stacks := t.opts.JoinStacks
	if gov != nil {
		lvl := gov.Level()
		if lvl >= degrade.LevelCountersOnly || lvl >= degrade.LevelShedEvents && shedEvent(e) {
			return
		}
		stacks = stacks && lvl < degrade.LevelShedEvents
	}
	team := ti.Team()
	if t.throttle != nil {
		var site uintptr
		if team != nil {
			site = team.SitePC
		}
		// Selective collection: over-budget regions keep their exact
		// event counts (the collector tallies dispatches) but skip the
		// expensive measurement/storage below.
		if !t.throttle.allow(site) {
			return
		}
	}
	now := perf.Cycles()
	buf := ti.TraceBuffer()
	if buf == nil {
		// The descriptor's first event under this tool: pin its buffer
		// once; subsequent events hit the pinned path.
		if buf = t.adoptDescriptor(ti); buf == nil {
			return // detached
		}
	}
	sample := perf.Sample{
		Time:    now,
		Thread:  ti.ID,
		Event:   int32(e),
		State:   int32(ti.State()),
		StackID: perf.NoStack,
	}
	if team != nil {
		sample.Region = team.RegionID
		sample.Site = uint64(team.SitePC)
	}
	if e == collector.EventChunkSteal || e == collector.EventTaskSteal {
		// Steal events are instantaneous and carry no wait state; the
		// State slot instead records the victim thread number published
		// in the thief's descriptor (the thief is Sample.Thread). This
		// keeps the trace format unchanged while giving reports the
		// victim->thief migration edge.
		sample.State = ti.StealVictim()
	}
	if stacks && e == collector.EventJoin {
		// The walk starts at our caller; the buffer stores the path from
		// the region's site (sample.Site) on.
		buf.AppendCallstack(sample, 1)
	} else {
		buf.Append(sample)
	}
	if gov != nil {
		// The sample's own timestamp doubles as the cost clock, so a
		// join is charged its stack walk with its append.
		gov.Meter().AddRecord(perf.Cycles() - now)
	}
}

// shedEvent reports whether e belongs to the low-value event classes
// the governor sheds at LevelShedEvents: the implicit-barrier pair
// (the highest-volume begin/end events the default registration
// carries) and the steal extension events. Fork/join — the mandatory
// events every region profile needs — are never shed before
// counters-only.
func shedEvent(e collector.Event) bool {
	switch e {
	case collector.EventThrBeginIBar, collector.EventThrEndIBar,
		collector.EventChunkSteal, collector.EventTaskSteal:
		return true
	}
	return false
}

// governorTransition is the governor's OnTransition hook: record the
// ladder move as an OMP_EVENT_GOVERNOR sample so the trace explains
// its own degradation offline. Only the governor's tick goroutine
// calls it, so the buffer keeps a single writer; it lives on the
// tool-owned pseudo-thread -1 and flows through the normal relay /
// streaming / ingest path.
func (t *Tool) governorTransition(tr degrade.Transition) {
	buf := t.govBuf
	if buf == nil {
		t.bufMu.Lock()
		buf = t.newBuffer(govThread, t.opts.BufferCap)
		t.extras = append(t.extras, threadBuf{id: govThread, buf: buf})
		t.bufMu.Unlock()
		t.govBuf = buf
	}
	buf.Append(perf.Sample{
		Time:    perf.Cycles(),
		Thread:  govThread,
		Event:   int32(collector.EventGovernor),
		State:   int32(tr.To),    // new ladder level
		Region:  uint64(tr.From), // previous level
		Site:    uint64(tr.Reason),
		StackID: perf.NoStack,
	})
}

// govThread is the pseudo-thread number governor samples record under.
const govThread int32 = -1

// boundBufferLocked returns the shared buffer for bound thread id,
// growing the dense registry if needed. All descriptors bound to one
// thread number share its buffer — the master's serial and parallel
// descriptors both carry ID 0 and run on the same goroutine, so the
// buffer keeps a single writer and thread 0's fork and join samples
// land in one stream. A buffer made here holds capacity samples before
// it grows.
func (t *Tool) boundBufferLocked(id int32, capacity int) *perf.TraceBuffer {
	if int(id) >= len(t.byID) {
		t.byID = append(t.byID, make([]*perf.TraceBuffer, int(id)+1-len(t.byID))...)
	}
	if t.byID[id] == nil {
		t.byID[id] = t.newBuffer(id, capacity)
	}
	return t.byID[id]
}

// adoptDescriptor pins a buffer into ti and returns it. The callback
// calls it at ti's first event under this tool, on ti's own thread, so
// the descriptor's slot has one writer while the tool is attached;
// once Detach has unpinned, it pins nothing and returns nil. A
// descriptor bound to its thread number takes that number's shared
// buffer. Any other — a transient thread of a true-nested team, which
// reuses a bound thread's number while running concurrently with it —
// takes a private one: sharing would put two writers on a
// single-writer buffer. A buffer made here starts at one chunk: this
// runs inside the callback the watchdog times, and preallocating the
// default BufferCap takes tens to hundreds of microseconds.
func (t *Tool) adoptDescriptor(ti *collector.ThreadInfo) *perf.TraceBuffer {
	t.bufMu.Lock()
	defer t.bufMu.Unlock()
	if t.pinned == nil {
		return nil
	}
	var b *perf.TraceBuffer
	if ti.ID >= 0 && t.col.Thread(ti.ID) == ti {
		b = t.boundBufferLocked(ti.ID, perf.ChunkSamples)
	} else {
		b = t.newBuffer(ti.ID, perf.ChunkSamples)
		t.extras = append(t.extras, threadBuf{id: ti.ID, buf: b})
	}
	t.pinned[ti] = struct{}{}
	ti.SetTraceBuffer(b)
	return b
}

// newBuffer creates one per-thread trace buffer. While streaming, the
// buffer holds a single chunk and relays filled chunks to the
// streamer, so in-memory residue stays bounded by one chunk per
// thread; otherwise it preallocates capacity samples.
func (t *Tool) newBuffer(id int32, capacity int) *perf.TraceBuffer {
	if t.stream != nil {
		return perf.NewRelayBuffer(t.stream.relay, id, t.opts.BufferLimit)
	}
	return perf.NewTraceBuffer(capacity, t.opts.BufferLimit)
}

// snapshotBuffers returns every registered buffer with its thread
// number: bound threads in ID order, then adopted extras.
func (t *Tool) snapshotBuffers() []threadBuf {
	t.bufMu.Lock()
	defer t.bufMu.Unlock()
	out := make([]threadBuf, 0, len(t.byID)+len(t.extras))
	for id, b := range t.byID {
		if b != nil {
			out = append(out, threadBuf{id: int32(id), buf: b})
		}
	}
	return append(out, t.extras...)
}

// ResetTraces clears every per-thread trace buffer (benchmark
// harnesses use it to bound memory across iterations). Buffers are
// single-writer, so this must not be called while events are being
// generated.
func (t *Tool) ResetTraces() {
	for _, tb := range t.snapshotBuffers() {
		tb.buf.Reset()
	}
}

// Pause suspends event generation without losing registrations.
func (t *Tool) Pause() error {
	if ec := collector.Control(t.q, collector.ReqPause); ec != collector.ErrOK {
		return fmt.Errorf("tool: pause failed: %v", ec)
	}
	return nil
}

// Resume re-enables event generation after Pause.
func (t *Tool) Resume() error {
	if ec := collector.Control(t.q, collector.ReqResume); ec != collector.ErrOK {
		return fmt.Errorf("tool: resume failed: %v", ec)
	}
	return nil
}

// Detach stops the sampler, unregisters the events, waits out
// in-flight callbacks (bounded by Options.DetachTimeout when set),
// flushes the streaming storage and sends the stop request. It is
// idempotent and safe to call concurrently, and it completes even when
// a callback is wedged: the wedged events are recorded for the report
// and the stream flush degrades to snapshot writes.
func (t *Tool) Detach() { t.detachOnce.Do(t.detach) }

func (t *Tool) detach() {
	if t.sup != nil {
		// Stop supervision first so teardown's own waits (quiesce,
		// stream flush) cannot trip a watchdog that is being retired.
		t.sup.Stop()
	}
	if t.obsSrv != nil {
		// Stop serving before teardown: Close drains in-flight scrapes
		// gracefully (bounded, then severed), so no scrape can race the
		// unpinning below and none is handed a torn response body.
		t.obsSrv.Close()
	}
	if t.sampler != nil {
		t.sampler.stop()
	}
	if t.gov != nil {
		// Stop the governor before the stream flush: its tick goroutine
		// is the single writer of the governor event buffer, which the
		// flush below is about to drain.
		t.gov.Stop()
	}
	// Stop event generation first, then wait for dispatches already in
	// flight: once quiescent no writer can touch a buffer, so the final
	// stream flush and the unpinning below are race-free. With a
	// detach deadline the wait is bounded; on timeout the flush must
	// not reset buffers (the wedged callback may still append), so it
	// leaves them as they are.
	for _, e := range t.events {
		collector.Unregister(t.q, e)
	}
	d := t.opts.DetachTimeout
	if b := t.detachBound.Load(); b > 0 && (d == 0 || time.Duration(b) < d) {
		// The hang handler bounds an otherwise unbounded quiesce: the
		// threads it just diagnosed as deadlocked will never retire
		// their callbacks.
		d = time.Duration(b)
	}
	quiesced := true
	if d > 0 {
		ok, wedged := t.col.QuiesceWithin(d)
		if !ok {
			quiesced = false
			t.wedged.Store(&wedged)
		}
	} else {
		t.col.Quiesce()
	}
	if t.stream != nil {
		if err := t.stream.stop(quiesced); err != nil {
			t.streamErr.Store(&err)
		}
	}
	for _, h := range t.handles {
		t.col.ReleaseCallbackHandle(h)
	}
	// Unpin before the stop request: the next tool's start request
	// fails until then, so no pin of ours outlives the attachment.
	t.bufMu.Lock()
	for ti := range t.pinned {
		ti.SetTraceBuffer(nil)
	}
	t.pinned = nil
	t.bufMu.Unlock()
	collector.Control(t.q, collector.ReqStop)
}

// StreamError returns the first error the streaming storage hit, if
// any; valid after Detach (and safe to call concurrently with it).
func (t *Tool) StreamError() error {
	if p := t.streamErr.Load(); p != nil {
		return *p
	}
	return nil
}

// QueryState asks the runtime for a thread's current state and wait ID
// through the protocol (usable while attached).
func (t *Tool) QueryState(thread int32) (collector.State, uint64, collector.ErrorCode) {
	return collector.QueryState(t.q, thread)
}

// sampler polls thread states asynchronously, standing in for the
// SIGPROF-style sampling a real profiler performs.
type sampler struct {
	done chan struct{}
	wg   sync.WaitGroup
}

func startSampler(t *Tool, period time.Duration) *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// A private queue: the sampler is its own tool thread.
		q := t.col.NewQueue()
		tick := time.NewTicker(period)
		defer tick.Stop()
		// Wire and observation buffers live across ticks: a steady-state
		// tick reuses them and allocates nothing but the ID list.
		var wire []byte
		var obs []collector.StateObservation
		var skipped int
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				if g := t.gov; g != nil {
					if g.Level() >= degrade.LevelShedEvents {
						// Shed rungs slow the sampler: process only every
						// SamplerScale'th tick. Skipping here rather than
						// resetting the ticker keeps the cadence shift
						// instantaneous in both directions.
						if skipped++; skipped%degrade.SamplerScale != 0 {
							continue
						}
					} else {
						skipped = 0
					}
				}
				start := perf.Cycles()
				// Poll the live descriptor set each tick, not a thread
				// count frozen at attach: threads added by a later
				// SetNumThreads or a larger team must be observed too.
				// One batched request sequence covers the whole set —
				// one queue hand-off per tick, not per thread — and the
				// histogram lock is taken once for all observations.
				wire, obs = collector.QueryStateBatch(q, t.liveThreadIDs(), wire, obs)
				t.mu.Lock()
				for _, o := range obs {
					if o.EC == collector.ErrOK {
						t.histogram.Observe(o.Thread, int32(o.State))
					}
				}
				t.mu.Unlock()
				if g := t.gov; g != nil {
					g.Meter().AddSampler(perf.Cycles() - start)
				}
			}
		}
	}()
	return s
}

// liveThreadIDs returns the sorted, deduplicated bound thread numbers
// currently present in the collector's descriptor table (the master
// binds two descriptors with ID 0; transient nested descriptors carry
// -1 and have no queryable number).
func (t *Tool) liveThreadIDs() []int32 {
	var ids []int32
	for _, ti := range t.col.Threads() {
		if ti.ID >= 0 {
			ids = append(ids, ti.ID)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// Report summarizes everything the tool observed.
type Report struct {
	// Events tallies callback invocations per event (from the
	// collector's own dispatch counters).
	Events map[collector.Event]uint64
	// Samples is the total number of stored trace samples.
	Samples int
	// ClockSource names what the samples' timestamps were read from
	// (perf.ClockSource): "tsc" or "monotonic".
	ClockSource string
	// Dropped counts samples lost to buffer limits.
	Dropped uint64
	// Regions holds per-site region timing built from the master
	// thread's fork/join samples: one row per static parallel region.
	Regions []perf.RegionSiteStats
	// JoinSites attributes join callstacks to user-model source sites.
	JoinSites []perf.SiteProfile
	// States is the asynchronous state-sampling histogram (nil without
	// a sampler).
	States *perf.StateHistogram
	// Throttled counts samples suppressed by selective collection, and
	// ThrottledSites the distinct region sites observed (zero when
	// MaxSamplesPerSite is off).
	Throttled      uint64
	ThrottledSites int

	// RelayDropped counts sealed chunks discarded because the
	// streaming relay was full (their samples are part of Dropped).
	RelayDropped uint64
	// StreamRetries counts transient stream-I/O failures that were
	// retried (successfully or not).
	StreamRetries uint64
	// StreamDiscardedChunks/Samples count the trace blocks (and the
	// samples inside them) the streaming storage gave up on after
	// retries and the stop-time recovery attempt.
	StreamDiscardedChunks  uint64
	StreamDiscardedSamples uint64
	// ForcedDropSamples is always zero: no chunk is dropped except for
	// the losses counted above. It stays only because the pipeline
	// benchmark (bench/) still adds it to its dropped samples.
	ForcedDropSamples uint64
	// DegradedThreads counts threads whose trace file failed
	// permanently and fell back to in-memory retention.
	DegradedThreads int
	// IngestShippedChunks counts trace blocks acknowledged by the
	// ingestion daemon (Options.IngestAddr). IngestDroppedChunks and
	// IngestDroppedSamples count the blocks (and the samples inside
	// them) the network sink gave up shipping: retention-queue overflow
	// while the server was unreachable, a server nack, or the tail
	// still unflushed when the stop grace expired. With a file sink
	// configured alongside, those blocks are still on local disk.
	// IngestReconnects counts connections re-established after a drop.
	// IngestStorageChunks and IngestStorageSamples count blocks the
	// server refused with the typed INGEST_STORAGE code — its disk
	// failed and the run was quarantined server-side. They are kept out
	// of the generic drop counters because the loss is a storage
	// failure on the far end, not a delivery failure.
	IngestShippedChunks  uint64
	IngestDroppedChunks  uint64
	IngestDroppedSamples uint64
	IngestStorageChunks  uint64
	IngestStorageSamples uint64
	IngestReconnects     uint64
	// IngestProducedChunks counts every trace block handed to the
	// network sink; with the spill counters below it closes the chunk
	// conservation invariant the sink maintains:
	//
	//   produced == shipped + dropped + storage + replayed + pending
	//
	// IngestSpilledChunks counts blocks that took the store-and-forward
	// detour through the local trace files (StreamDir set with
	// IngestAddr); of those, IngestReplayedChunks were delivered and
	// acknowledged after replay, and IngestSpillPendingChunks were
	// still waiting when the sink shut down (on disk, not lost). IngestOverloadedAcks counts
	// INGEST_OVERLOADED acks from the daemon — the backpressure signal
	// fed to the overhead governor.
	IngestProducedChunks      uint64
	IngestProducedSamples     uint64
	IngestSpilledChunks       uint64
	IngestSpilledSamples      uint64
	IngestReplayedChunks      uint64
	IngestReplayedSamples     uint64
	IngestSpillPendingChunks  uint64
	IngestSpillPendingSamples uint64
	IngestOverloadedAcks      uint64
	// GovernorSteps is the overhead governor's transition history (nil
	// when Options.OverheadCeiling is off); GovernorLevel and
	// GovernorRatio are its final ladder level and EWMA overhead ratio
	// against GovernorCeiling.
	GovernorSteps   []degrade.Transition
	GovernorLevel   degrade.Level
	GovernorRatio   float64
	GovernorCeiling float64
	// Health is the collector's fault-isolation snapshot: contained
	// callback panics, watchdog breaker trips, wedged callbacks.
	Health *collector.Health
	// Wedged lists the events whose callbacks were still in flight
	// when a bounded Detach gave up waiting (nil otherwise).
	Wedged []collector.WedgedEvent
	// Hang is the rendered hang-supervision report when the watchdog
	// fired ("" otherwise). When set, the trace above it is the
	// salvaged gap-free prefix of a run that did not finish.
	Hang string
}

// Report builds the current report. It may be called after Detach.
func (t *Tool) Report() *Report {
	r := &Report{Events: make(map[collector.Event]uint64), ClockSource: perf.ClockSource()}
	for _, e := range t.events {
		r.Events[e] = t.col.EventCount(e)
	}
	stripper := perf.NewStripper()
	seenRegions := false
	for _, tb := range t.snapshotBuffers() {
		r.Samples += tb.buf.Len()
		r.Dropped += tb.buf.Dropped()
		r.RelayDropped += tb.buf.RelayDropped()
		if tb.id == 0 && !seenRegions {
			seenRegions = true
			r.Regions = perf.RegionProfileBySite(tb.buf.Samples(),
				int32(collector.EventFork), int32(collector.EventJoin))
		}
		r.JoinSites = append(r.JoinSites, perf.SiteProfiles(tb.buf, stripper)...)
	}
	if t.sampler != nil {
		t.mu.Lock()
		r.States = t.histogram
		t.mu.Unlock()
	}
	r.Throttled = t.throttle.Skipped()
	r.ThrottledSites = t.throttle.Sites()
	if s := t.stream; s != nil {
		r.StreamRetries = s.retries.Load()
		r.StreamDiscardedChunks, r.StreamDiscardedSamples = s.led.Settled(discarded)
		r.DegradedThreads = int(s.degraded.Load())
		if n := s.net; n != nil {
			r.IngestProducedChunks, r.IngestProducedSamples = n.led.Taken()
			r.IngestShippedChunks, _ = n.led.Settled(shipped)
			r.IngestDroppedChunks, r.IngestDroppedSamples = n.led.Settled(dropped)
			r.IngestStorageChunks, r.IngestStorageSamples = n.led.Settled(storage)
			r.IngestReplayedChunks, r.IngestReplayedSamples = n.led.Settled(replayed)
			r.IngestOverloadedAcks = n.overloadedAcks.Load()
			r.IngestSpilledChunks, r.IngestSpilledSamples = n.spilledCounts()
			r.IngestSpillPendingChunks, r.IngestSpillPendingSamples = n.parkedCounts()
			if c := n.connects.Load(); c > 1 {
				r.IngestReconnects = c - 1
			}
		}
	}
	if g := t.gov; g != nil {
		r.GovernorSteps = g.Steps()
		r.GovernorLevel = g.Level()
		r.GovernorRatio = g.Ratio()
		r.GovernorCeiling = g.Ceiling()
	}
	r.Health = t.col.Health()
	if p := t.wedged.Load(); p != nil {
		r.Wedged = *p
	}
	r.Hang = t.HangReport()
	return r
}

// encoding is the block format of everything the tool writes: PSX2,
// deflated when Options.TraceCompress asks.
func (t *Tool) encoding() perf.Encoding {
	return perf.Encoding{V2: true, Flate: t.opts.TraceCompress}
}

// WriteTraces serializes every per-thread buffer through write, which
// receives the thread ID and must return the destination stream. When
// a thread number has several buffers (transient true-nested
// descriptors reuse bound thread numbers), each extra buffer is
// written as a further block to the same stream; read multi-block
// streams back with perf.ReadTraceStream.
func (t *Tool) WriteTraces(write func(thread int32) (io.Writer, error)) error {
	snap := t.snapshotBuffers()
	sort.SliceStable(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
	writers := make(map[int32]io.Writer)
	for _, tb := range snap {
		w := writers[tb.id]
		if w == nil {
			var err error
			if w, err = write(tb.id); err != nil {
				return err
			}
			writers[tb.id] = w
		}
		if err := perf.WriteTraceEnc(w, tb.buf, t.encoding()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTo renders the report as text.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	// p prints until the first write error and is a no-op after it.
	var n int64
	var err error
	p := func(format string, args ...any) {
		if err != nil {
			return
		}
		var m int
		m, err = fmt.Fprintf(w, format, args...)
		n += int64(m)
	}
	p("collector tool report\n")
	events := make([]collector.Event, 0, len(r.Events))
	for e := range r.Events {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	for _, e := range events {
		p("  %-32s %d\n", e, r.Events[e])
	}
	p("  samples stored: %d (dropped %d)\n", r.Samples, r.Dropped)
	p("  clock source: %s\n", r.ClockSource)
	if r.RelayDropped > 0 || r.StreamRetries > 0 || r.StreamDiscardedChunks > 0 || r.DegradedThreads > 0 {
		p("  stream: %d retries, %d relay-dropped chunks, %d discarded chunks (%d samples), %d degraded threads\n",
			r.StreamRetries, r.RelayDropped, r.StreamDiscardedChunks,
			r.StreamDiscardedSamples, r.DegradedThreads)
	}
	if r.IngestShippedChunks > 0 || r.IngestDroppedChunks > 0 || r.IngestReconnects > 0 {
		p("  ingest: %d produced chunks, %d shipped, %d dropped (%d samples), %d reconnects, %d overloaded acks\n",
			r.IngestProducedChunks, r.IngestShippedChunks, r.IngestDroppedChunks,
			r.IngestDroppedSamples, r.IngestReconnects, r.IngestOverloadedAcks)
	}
	if r.IngestSpilledChunks > 0 || r.IngestSpillPendingChunks > 0 {
		p("  spill: %d chunks (%d samples) spilled to disk, %d (%d samples) replayed and acked, %d (%d samples) still pending on disk\n",
			r.IngestSpilledChunks, r.IngestSpilledSamples,
			r.IngestReplayedChunks, r.IngestReplayedSamples,
			r.IngestSpillPendingChunks, r.IngestSpillPendingSamples)
	}
	if r.GovernorCeiling > 0 {
		p("  governor: level %s, overhead %.4f (ceiling %.4f), %d transitions\n",
			r.GovernorLevel, r.GovernorRatio, r.GovernorCeiling, len(r.GovernorSteps))
		for _, tr := range r.GovernorSteps {
			p("    %s\n", tr)
		}
	}
	if r.IngestStorageChunks > 0 {
		p("  ingest storage: %d chunks (%d samples) refused INGEST_STORAGE (run quarantined server-side)\n",
			r.IngestStorageChunks, r.IngestStorageSamples)
	}
	if r.Health != nil && !r.Health.Healthy() {
		p("  %s\n", r.Health)
	}
	for _, w := range r.Wedged {
		p("  wedged at detach: %s (running %v)\n", w.Event, w.Age)
	}
	if len(r.Regions) > 0 {
		p("  parallel region sites timed: %d\n", len(r.Regions))
	}
	for i, s := range r.JoinSites {
		if i >= 10 {
			break
		}
		p("  join site %s:%d (%s) ×%d\n",
			s.Leaf.File, s.Leaf.Line, s.Leaf.Func, s.Count)
	}
	if r.Hang != "" {
		p("  WARNING: run hung; data above is the salvaged gap-free prefix\n")
		for _, line := range strings.Split(strings.TrimRight(r.Hang, "\n"), "\n") {
			p("  | %s\n", line)
		}
	}
	return n, err
}
