package collector

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/perf"
)

// Fault isolation at the runtime↔tool boundary. The paper's design has
// the tool and the OpenMP runtime share one process (the tool is
// LD_PRELOADed into the application) while "remaining fully independent
// of one another" — which must include independence of failure. Three
// mechanisms enforce that here:
//
//   - Panic containment: a callback that panics is recovered inside the
//     dispatch, recorded, and auto-unregistered, so a tool bug never
//     unwinds into the OpenMP thread that happened to dispatch the
//     event (where it would masquerade as an application error).
//   - Callback watchdog: with a budget armed, every Nth dispatch of an
//     event is timed; a callback observed over budget trips a circuit
//     breaker that pauses event generation (the ReqPause machinery)
//     and records why. The unsampled dispatches pay nothing beyond the
//     dispatch's in-flight mark.
//   - Bounded quiesce: QuiesceWithin gives detach a deadline even when
//     a callback is wedged, and names the events still in flight.
//
// Collector.Health() snapshots all of it for the tool's report.

// PanicRecord summarizes the contained panics of one event's callback.
type PanicRecord struct {
	Event Event
	Count uint64
	// Last renders the most recent panic value.
	Last string
	// Unregistered reports that the event's callback was removed after
	// its first panic (it always is; recorded for the report).
	Unregistered bool
}

// BreakerTrip records one circuit-breaker trip: a sampled dispatch
// observed the event's callback running longer than the armed budget.
type BreakerTrip struct {
	Event   Event
	Elapsed time.Duration
}

// WedgedEvent names an event whose callback has been executing for
// longer than the watchdog budget (or, from QuiesceWithin, past the
// quiesce deadline), together with how long the oldest sampled
// dispatch has been running (zero when the wedged dispatch was not a
// sampled one).
type WedgedEvent struct {
	Event Event
	Age   time.Duration
}

// Health is a snapshot of the collector's fault-isolation state.
type Health struct {
	// Panics lists events whose callbacks panicked, with counts; the
	// offending callbacks were contained and auto-unregistered.
	Panics []PanicRecord
	// Trips lists circuit-breaker trips in the order they occurred.
	// After the first trip event generation is paused until a resume
	// request.
	Trips []BreakerTrip
	// Wedged lists events with a callback currently in flight beyond
	// the watchdog budget.
	Wedged []WedgedEvent
}

// Healthy reports whether no fault has been observed: no contained
// panic, no breaker trip, and no wedged callback.
func (h *Health) Healthy() bool {
	return len(h.Panics) == 0 && len(h.Trips) == 0 && len(h.Wedged) == 0
}

// String renders the health snapshot for reports and logs.
func (h *Health) String() string {
	if h.Healthy() {
		return "collector healthy"
	}
	s := "collector degraded:"
	for _, p := range h.Panics {
		s += fmt.Sprintf("\n  panic %s ×%d (unregistered): %s", p.Event, p.Count, p.Last)
	}
	for _, t := range h.Trips {
		s += fmt.Sprintf("\n  breaker trip %s after %v (events paused)", t.Event, t.Elapsed)
	}
	for _, w := range h.Wedged {
		s += fmt.Sprintf("\n  wedged %s for %v", w.Event, w.Age)
	}
	return s
}

// healthState is the cold-path fault record, touched only when a fault
// actually fires (panic, trip) or a snapshot is taken.
type healthState struct {
	mu     sync.Mutex
	panics map[Event]*PanicRecord
	trips  []BreakerTrip
}

// defaultWatchdogSample is the dispatch-sampling interval of the
// watchdog: one dispatch in this many (per event and thread) is timed.
// It must be a power of two; the fast path masks the event count with
// sample-1.
const defaultWatchdogSample = 64

// WithCallbackBudget arms the callback watchdog at construction: a
// sampled dispatch observing a callback over this budget trips the
// breaker. Zero (the default) disarms the watchdog entirely; the
// dispatch path then performs no timing.
func WithCallbackBudget(d time.Duration) Option {
	return func(c *Collector) { c.budget.Store(int64(d)) }
}

// WithWatchdogSampling sets how often the armed watchdog times a
// dispatch: every nth dispatch of an event on a thread (rounded up to
// a power of two). n <= 1 times every dispatch. Without a budget this
// is inert.
func WithWatchdogSampling(n int) Option {
	return func(c *Collector) { c.sampleMask = sampleMaskFor(n) }
}

func sampleMaskFor(n int) uint64 {
	if n <= 1 {
		return 0
	}
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return p - 1
}

// invoke runs cb with panic containment: a panicking callback is
// recorded and auto-unregistered, and the panic never unwinds into the
// OpenMP thread that dispatched the event.
func (c *Collector) invoke(cb *Callback, e Event, t *ThreadInfo) {
	defer func() {
		if v := recover(); v != nil {
			c.containPanic(e, v)
		}
	}()
	(*cb)(e, t)
}

// invokeTimed is the sampled watchdog path: it stamps the dispatch
// start into the event's started slot (making a wedged callback
// observable) and trips the breaker if the callback exceeds the
// budget. Panics are contained exactly as on the untimed path.
func (c *Collector) invokeTimed(cb *Callback, e Event, t *ThreadInfo, budget int64) {
	start := perf.Cycles()
	c.started[e].Store(start)
	defer func() {
		c.started[e].Store(0)
		if elapsed := perf.Cycles() - start; elapsed > budget {
			c.tripBreaker(e, time.Duration(elapsed))
		}
		if v := recover(); v != nil {
			c.containPanic(e, v)
		}
	}()
	(*cb)(e, t)
}

// containPanic records a recovered callback panic and removes the
// offending callback so it cannot fire again.
func (c *Collector) containPanic(e Event, v any) {
	c.unregister(e)
	c.health.mu.Lock()
	defer c.health.mu.Unlock()
	if c.health.panics == nil {
		c.health.panics = make(map[Event]*PanicRecord)
	}
	rec := c.health.panics[e]
	if rec == nil {
		rec = &PanicRecord{Event: e, Unregistered: true}
		c.health.panics[e] = rec
	}
	rec.Count++
	rec.Last = fmt.Sprint(v)
}

// tripBreaker pauses event generation — the same paused flag a
// ReqPause sets, so a later ReqResume re-arms generation — and records
// which event's callback blew the budget.
func (c *Collector) tripBreaker(e Event, elapsed time.Duration) {
	c.paused.Store(true)
	c.health.mu.Lock()
	c.health.trips = append(c.health.trips, BreakerTrip{Event: e, Elapsed: elapsed})
	c.health.mu.Unlock()
}

// Health returns a snapshot of the collector's fault-isolation state:
// contained panics, breaker trips, and callbacks currently wedged past
// the watchdog budget.
func (c *Collector) Health() *Health {
	h := &Health{}
	c.health.mu.Lock()
	for _, rec := range c.health.panics {
		h.Panics = append(h.Panics, *rec)
	}
	h.Trips = append([]BreakerTrip(nil), c.health.trips...)
	c.health.mu.Unlock()
	sortPanics(h.Panics)
	if budget := c.budget.Load(); budget > 0 {
		now := perf.Cycles()
		for e := range c.started {
			// A stamp is cleared before its dispatch leaves.
			if start := c.started[e].Load(); start != 0 && now-start > budget {
				h.Wedged = append(h.Wedged, WedgedEvent{
					Event: Event(e), Age: time.Duration(now - start),
				})
			}
		}
	}
	return h
}

func sortPanics(ps []PanicRecord) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Event < ps[j-1].Event; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// BreakerTripped reports whether the watchdog has tripped at least
// once (event generation stays paused until a resume request).
func (c *Collector) BreakerTripped() bool {
	c.health.mu.Lock()
	defer c.health.mu.Unlock()
	return len(c.health.trips) > 0
}

// quiescent reports whether no event callback is executing.
func (c *Collector) quiescent() bool {
	for _, t := range *c.dispatchers.Load() {
		if atomic.LoadUint64(&t.dispatch.word)>>32 != 0 {
			return false
		}
	}
	return true
}

// wedgedNow lists the events with a callback currently in flight, in
// event order, with ages for the sampled ones.
func (c *Collector) wedgedNow() []WedgedEvent {
	var inflight [NumEvents]bool
	for _, t := range *c.dispatchers.Load() {
		if w := atomic.LoadUint64(&t.dispatch.word); w>>32 != 0 {
			inflight[uint32(w)] = true
		}
	}
	var out []WedgedEvent
	now := perf.Cycles()
	for e, in := range inflight {
		if !in {
			continue
		}
		w := WedgedEvent{Event: Event(e)}
		if start := c.started[e].Load(); start != 0 {
			w.Age = time.Duration(now - start)
		}
		out = append(out, w)
	}
	return out
}

// QuiesceWithin waits up to d for in-flight callbacks to finish, like
// Quiesce, but bounded: callers must already have stopped new
// dispatches (unregister, pause or stop). It returns true on
// quiescence; on timeout it returns false plus the events whose
// callbacks are still executing, so a detaching tool can report which
// callback is wedged and fall back to snapshot-based draining.
func (c *Collector) QuiesceWithin(d time.Duration) (bool, []WedgedEvent) {
	deadline := time.Now().Add(d)
	for spins := 0; !c.quiescent(); spins++ {
		if time.Now().After(deadline) {
			return false, c.wedgedNow()
		}
		if spins < 128 {
			runtime.Gosched()
		} else {
			// A callback has been running for many scheduler passes:
			// stop burning the CPU it may need to finish.
			time.Sleep(100 * time.Microsecond)
		}
	}
	return true, nil
}
