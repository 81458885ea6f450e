// Package faultinject provides deterministic, replayable fault plans
// for exercising the tool↔runtime boundary's fault isolation: callback
// faults (panic, hang, delay), stream-I/O faults (transient and torn
// write errors, failing file opens) and forced chunk drops. A Plan is
// wired into a tool through the tool.Options hooks (WrapCallback,
// OpenTraceFile, DropChunk); the chaos tests then assert that the
// application completes with pinned checksums, that every lost sample
// is accounted for exactly, and that the health report names every
// injected fault.
//
// Determinism: explicit rules fire at exact (event, invocation) or
// (thread, write-index) coordinates; probabilistic rules hash the
// plan's seed with the coordinate, so the same seed yields the same
// fault schedule on every run regardless of goroutine interleaving.
// Every fault that actually fires is recorded; Fired() returns the
// records for assertions and for diffing two runs of the same seed.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"goomp/internal/collector"
	"goomp/internal/tool"
)

// ErrInjected is the error returned by injected I/O faults; tests can
// errors.Is against it to distinguish injected failures from real ones.
var ErrInjected = errors.New("faultinject: injected I/O error")

// Kind classifies a fired fault.
type Kind int

// Fault kinds.
const (
	KindPanic Kind = iota
	KindHang
	KindDelay
	KindWriteError
	KindTornWrite
	KindOpenError
	KindChunkDrop
	KindMsgDrop
	KindMsgDelay
	KindStall
	KindDialError
	KindConnCut
	KindConnTear
	KindAckDelay
	KindDiskFull
	KindSlowSync
	KindCrashWrite
	KindCrashRename
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindHang:
		return "hang"
	case KindDelay:
		return "delay"
	case KindWriteError:
		return "write-error"
	case KindTornWrite:
		return "torn-write"
	case KindOpenError:
		return "open-error"
	case KindChunkDrop:
		return "chunk-drop"
	case KindMsgDrop:
		return "msg-drop"
	case KindMsgDelay:
		return "msg-delay"
	case KindStall:
		return "stall"
	case KindDialError:
		return "dial-error"
	case KindConnCut:
		return "conn-cut"
	case KindConnTear:
		return "conn-tear"
	case KindAckDelay:
		return "ack-delay"
	case KindDiskFull:
		return "disk-full"
	case KindSlowSync:
		return "slow-sync"
	case KindCrashWrite:
		return "crash-write"
	case KindCrashRename:
		return "crash-rename"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Record is one fired fault. Callback faults carry the event and the
// 1-based invocation number; I/O faults carry the thread and the write
// index (or chunk sequence / open attempt); message and stall faults
// carry a rendered coordinate in Point.
type Record struct {
	Kind   Kind
	Event  collector.Event
	Thread int32
	Index  uint64
	Point  string
}

func (r Record) String() string {
	switch r.Kind {
	case KindPanic, KindHang, KindDelay:
		return fmt.Sprintf("%s %s invocation %d", r.Kind, r.Event, r.Index)
	case KindMsgDrop, KindMsgDelay, KindStall,
		KindDialError, KindConnCut, KindConnTear, KindAckDelay,
		KindDiskFull, KindSlowSync, KindCrashWrite, KindCrashRename:
		return fmt.Sprintf("%s %s", r.Kind, r.Point)
	default:
		return fmt.Sprintf("%s thread %d index %d", r.Kind, r.Thread, r.Index)
	}
}

type eventKey struct {
	e   collector.Event
	nth uint64
}

type writeKey struct {
	thread int32
	index  uint64
}

type callbackFault struct {
	kind  Kind
	delay time.Duration
}

// delayEveryRule is a sustained periodic callback delay: every nth
// invocation of an event sleeps, modelling steady external jitter
// rather than DelayOn's one-shot spike.
type delayEveryRule struct {
	every uint64
	delay time.Duration
}

// Plan is a replayable fault schedule. Build it with the rule methods,
// wire it into a tool with Apply, run the workload, then inspect
// Fired(). A Plan may be used by many goroutines concurrently.
type Plan struct {
	seed uint64

	mu            sync.Mutex
	callbacks     map[eventKey]callbackFault
	periodic      map[collector.Event]delayEveryRule
	invoked       map[collector.Event]uint64 // per-event invocation counter
	writes        map[writeKey]int           // attempts to fail with a clean error
	torn          map[writeKey]bool          // first attempt fails mid-write
	opens         map[int32]int              // open attempts to fail per thread
	opened        map[int32]int              // open attempts seen per thread
	writeRate     float64                    // seed-hashed transient-error rate
	dropEvery     int                        // drop every nth chunk per thread
	msgs          []msgRule                  // mpi message drop/delay rules
	stalls        map[string]bool            // armed named stall points
	dialFails     int                        // ingest dials to fail first
	dialFailFrom  int                        // 1-based start of a failing dial window
	dialFailCount int                        // dials in the failing window
	dials         int                        // ingest dial attempts seen
	connsMade     int                        // ingest connections established
	cuts          map[int]int                // conn → frames before the cut
	tears         map[int]int                // conn → 1-based frame torn mid-write
	ackDelay      time.Duration              // slow-link delay per conn read
	fsRules       []*fsRule                  // writer-side filesystem faults
	onCrash       func()                     // fired synchronously by crash-shaped fs faults
	fired         []Record

	releaseOnce sync.Once
	release     chan struct{}
}

// New returns an empty plan with the given replay seed.
func New(seed int64) *Plan {
	return &Plan{
		seed:      uint64(seed),
		callbacks: make(map[eventKey]callbackFault),
		periodic:  make(map[collector.Event]delayEveryRule),
		invoked:   make(map[collector.Event]uint64),
		writes:    make(map[writeKey]int),
		torn:      make(map[writeKey]bool),
		opens:     make(map[int32]int),
		opened:    make(map[int32]int),
		stalls:    make(map[string]bool),
		cuts:      make(map[int]int),
		tears:     make(map[int]int),
		release:   make(chan struct{}),
	}
}

// PanicOn makes the nth (1-based) invocation of e's callback panic
// instead of running the tool's callback; the sample that invocation
// would have stored is therefore never stored (the accounting tests
// subtract one stored sample per fired panic).
func (p *Plan) PanicOn(e collector.Event, nth uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.callbacks[eventKey{e, nth}] = callbackFault{kind: KindPanic}
}

// HangOn makes the nth invocation of e's callback block until Release
// is called, without running the tool's callback.
func (p *Plan) HangOn(e collector.Event, nth uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.callbacks[eventKey{e, nth}] = callbackFault{kind: KindHang}
}

// DelayOn makes the nth invocation of e's callback sleep d before
// running the tool's callback (the sample is still stored) — the slow
// callback the watchdog's circuit breaker exists to catch.
func (p *Plan) DelayOn(e collector.Event, nth uint64, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.callbacks[eventKey{e, nth}] = callbackFault{kind: KindDelay, delay: d}
}

// DelayEvery makes every nth invocation of e's callback (n, 2n, …)
// sleep d before running the tool's callback — sustained external
// jitter (a congested machine, a slow wrapped tool) rather than
// DelayOn's one-shot spike. Exact-coordinate rules on the same
// invocation take precedence.
func (p *Plan) DelayEvery(e collector.Event, every uint64, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.periodic[e] = delayEveryRule{every: every, delay: d}
}

// Release unblocks every hung callback (idempotent).
func (p *Plan) Release() { p.releaseOnce.Do(func() { close(p.release) }) }

// FailWrite makes the write at (thread, index) fail cleanly — zero
// bytes written — for its first attempts tries, then succeed. With
// attempts within the streamer's retry limit the write eventually
// lands and no data is lost; beyond it the thread degrades.
func (p *Plan) FailWrite(thread int32, index uint64, attempts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writes[writeKey{thread, index}] = attempts
}

// TearWrite makes the write at (thread, index) fail after writing only
// part of the block — the torn-file case that must never be retried in
// place. The partial bytes really reach the file, so readers exercise
// truncated-trace recovery.
func (p *Plan) TearWrite(thread int32, index uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.torn[writeKey{thread, index}] = true
}

// FailOpen makes the first attempts opens of thread's trace file fail.
func (p *Plan) FailOpen(thread int32, attempts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.opens[thread] = attempts
}

// WriteErrorRate injects a transient (single-attempt, clean) write
// error at each (thread, write-index) the seed hashes below rate.
// The retry then succeeds, so a rate well under 1 loses no data.
func (p *Plan) WriteErrorRate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeRate = rate
}

// DropEveryNth forces every nth streamed chunk (per thread, 1-based)
// to be discarded.
func (p *Plan) DropEveryNth(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropEvery = n
}

// Apply wires the plan into the tool options: callbacks are wrapped,
// trace files opened through the fault schedule, and chunk drops
// forced. Existing hooks are composed, not replaced.
func (p *Plan) Apply(opts *tool.Options) {
	inner := opts.WrapCallback
	opts.WrapCallback = func(cb collector.Callback) collector.Callback {
		if inner != nil {
			cb = inner(cb)
		}
		return p.WrapCallback(cb)
	}
	opts.OpenTraceFile = p.Opener(opts.OpenTraceFile)
	opts.DialIngest = p.Dialer(opts.DialIngest)
	prevDrop := opts.DropChunk
	opts.DropChunk = func(thread int32, seq int) bool {
		if prevDrop != nil && prevDrop(thread, seq) {
			return true
		}
		return p.DropChunk(thread, seq)
	}
}

// WrapCallback wraps a collector callback with the plan's callback
// fault schedule; it matches the tool.Options.WrapCallback signature.
func (p *Plan) WrapCallback(cb collector.Callback) collector.Callback {
	return func(e collector.Event, ti *collector.ThreadInfo) {
		f, nth, ok := p.nextCallbackFault(e)
		if !ok {
			cb(e, ti)
			return
		}
		switch f.kind {
		case KindPanic:
			p.record(Record{Kind: KindPanic, Event: e, Index: nth})
			panic(fmt.Sprintf("faultinject: panic at %s invocation %d", e, nth))
		case KindHang:
			p.record(Record{Kind: KindHang, Event: e, Index: nth})
			<-p.release
		case KindDelay:
			p.record(Record{Kind: KindDelay, Event: e, Index: nth})
			time.Sleep(f.delay)
			cb(e, ti)
		}
	}
}

func (p *Plan) nextCallbackFault(e collector.Event) (callbackFault, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.invoked[e]++
	nth := p.invoked[e]
	f, ok := p.callbacks[eventKey{e, nth}]
	if !ok {
		if r, has := p.periodic[e]; has && r.every > 0 && nth%r.every == 0 {
			return callbackFault{kind: KindDelay, delay: r.delay}, nth, true
		}
	}
	return f, nth, ok
}

// Opener wraps a trace-file opener (nil means os.Create) with the
// plan's open- and write-fault schedules; it matches the
// tool.Options.OpenTraceFile signature. The owning thread is parsed
// from the streamer's trace.<thread>.psxt naming; files with other
// names get thread -1.
func (p *Plan) Opener(inner func(string) (io.WriteCloser, error)) func(string) (io.WriteCloser, error) {
	if inner == nil {
		inner = func(path string) (io.WriteCloser, error) { return os.Create(path) }
	}
	return func(path string) (io.WriteCloser, error) {
		thread := threadFromPath(path)
		if p.openFault(thread) {
			return nil, fmt.Errorf("open %s: %w", path, ErrInjected)
		}
		w, err := inner(path)
		if err != nil {
			return nil, err
		}
		return &faultWriter{p: p, thread: thread, inner: w}, nil
	}
}

func threadFromPath(path string) int32 {
	base := filepath.Base(path)
	base = strings.TrimPrefix(base, "trace.")
	base = strings.TrimSuffix(base, ".psxt")
	n, err := strconv.ParseInt(base, 10, 32)
	if err != nil {
		return -1
	}
	return int32(n)
}

func (p *Plan) openFault(thread int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	attempt := p.opened[thread]
	p.opened[thread] = attempt + 1
	if attempt < p.opens[thread] {
		p.fired = append(p.fired, Record{Kind: KindOpenError, Thread: thread, Index: uint64(attempt)})
		return true
	}
	return false
}

// DropChunk consults the forced-drop schedule; it matches the
// tool.Options.DropChunk signature (seq is the streamer's 0-based
// per-thread chunk sequence).
func (p *Plan) DropChunk(thread int32, seq int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	drop := p.dropEvery > 0 && (seq+1)%p.dropEvery == 0
	if drop {
		p.fired = append(p.fired, Record{Kind: KindChunkDrop, Thread: thread, Index: uint64(seq)})
	}
	return drop
}

// Fired returns a copy of every fault that actually fired, in firing
// order per coordinate (the global order depends on scheduling; use
// SortedFired for a canonical view).
func (p *Plan) Fired() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Record(nil), p.fired...)
}

// SortedFired returns the fired records in a canonical order,
// independent of goroutine interleaving — the view to compare across
// replays of one seed.
func (p *Plan) SortedFired() []Record {
	out := p.Fired()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		return a.Index < b.Index
	})
	return out
}

// FiredCount returns how many faults of the given kind fired.
func (p *Plan) FiredCount(k Kind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.fired {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func (p *Plan) record(r Record) {
	p.mu.Lock()
	p.fired = append(p.fired, r)
	p.mu.Unlock()
}

// writeFault decides the fate of one write attempt; it returns the
// bytes to report written, the error, and whether a fault fired.
func (p *Plan) writeFault(thread int32, index uint64, attempt, size int) (int, error, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := writeKey{thread, index}
	if p.torn[key] && attempt == 0 {
		n := size / 2
		if n == 0 {
			n = 1
		}
		p.fired = append(p.fired, Record{Kind: KindTornWrite, Thread: thread, Index: index})
		return n, fmt.Errorf("torn after %d bytes: %w", n, ErrInjected), true
	}
	limit := p.writes[key]
	if limit == 0 && p.writeRate > 0 && p.roll(uint64(thread), index) < p.writeRate {
		limit = 1 // transient: the retry succeeds
	}
	if attempt < limit {
		p.fired = append(p.fired, Record{Kind: KindWriteError, Thread: thread, Index: index})
		return 0, ErrInjected, true
	}
	return 0, nil, false
}

// roll maps (seed, a, b) to [0, 1) with a splitmix-style hash, giving
// interleaving-independent probabilistic faults.
func (p *Plan) roll(a, b uint64) float64 {
	h := p.seed ^ (a+1)*0x9e3779b97f4a7c15 ^ (b+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// faultWriter applies the write-fault schedule in front of the real
// file. Only the streamer's writer goroutine uses one instance, so the
// index/attempt cursors need no lock; the plan lookups take the plan
// lock internally.
type faultWriter struct {
	p       *Plan
	thread  int32
	inner   io.WriteCloser
	index   uint64 // completed (or abandoned) writes so far
	attempt int    // failed attempts at the current index
}

func (w *faultWriter) Write(b []byte) (int, error) {
	n, err, faulted := w.p.writeFault(w.thread, w.index, w.attempt, len(b))
	if faulted {
		if n > 0 {
			// A torn write leaves its partial bytes in the real file so
			// readers see a genuinely truncated trace.
			if wn, werr := w.inner.Write(b[:n]); werr != nil {
				return wn, werr
			}
			w.index++
			w.attempt = 0
		} else {
			w.attempt++
		}
		return n, err
	}
	w.index++
	w.attempt = 0
	return w.inner.Write(b)
}

func (w *faultWriter) Close() error { return w.inner.Close() }
