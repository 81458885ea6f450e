// Package degrade implements the overhead governor that makes
// always-on profiling survivable: a feedback controller that
// continuously compares what the measurement pipeline is spending
// (event record time, join stack walks included, and the asynchronous
// state sampler) against wall time, and walks a three-rung degradation
// ladder whenever the smoothed overhead ratio crosses a configured
// ceiling — first shed the low-value event classes, then fall back to
// counters only. Only rungs that store less are on the ladder: the
// paper's §V-B puts the profiling overhead in measurement and storage,
// and rungs that only slowed the sampler or skipped stack walks
// measured inside the noise (EXPERIMENTS.md "The ladder re-priced").
// When the load recedes the governor steps back up, but only after a
// hysteresis window of consecutive well-under-ceiling ticks, so the
// ladder never oscillates around the ceiling.
//
// The governor is deliberately cheap to consult: the current ladder
// level is a single atomic load (the measurement hot path gates on it),
// and cost attribution feeds cache-line-padded per-component atomics.
// The tick loop — one EWMA update and at most one transition per tick —
// is the only place any control decision is made, so transitions are
// totally ordered and every one is observable: the owner receives each
// Transition through a hook (the tool turns them into synthetic
// collector events in the trace) and the full history stays readable
// for reports and the obs plane.
//
// Backpressure from downstream — a psxd answering OVERLOADED, the
// ingest sink engaging its on-disk spill, or the streamer's relay
// filling — is a second governor input: Backpressure() latches a flag
// the next tick consumes as an immediate step-down, independent of the
// measured ratio, because a congested sink means the profiler is
// already producing more than the system can move.
package degrade

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a rung of the degradation ladder, ordered from full
// measurement to counters-only. Higher is more degraded. The numbers
// are trace data (EventGovernor samples, the goomp_governor_level
// gauge), so the ladder skips 1 and 2: they were the retired
// reduced-sampler and no-stacks rungs, and keep their names so older
// traces still render.
type Level int32

const (
	// LevelFull is undegraded measurement: every registered event is
	// stored, join stacks are captured, the sampler runs at its
	// configured period.
	LevelFull Level = 0

	// LevelShedEvents sheds the low-value event classes
	// (implicit-barrier begin/end and the steal extension events):
	// their dispatches are still counted, but nothing is stored. Join
	// stacks are not walked and the state sampler runs at SamplerScale
	// times its period.
	LevelShedEvents Level = 3

	// LevelCountersOnly stores nothing at all: the collector's atomic
	// dispatch counters are the entire measurement.
	LevelCountersOnly Level = 4
)

var levelNames = [...]string{"full", "reduced-sampler", "no-stacks", "shed-events", "counters-only"}

// ladder lists the rungs the governor walks, one per tick.
var ladder = [...]Level{LevelFull, LevelShedEvents, LevelCountersOnly}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("level(%d)", int32(l))
	}
	return levelNames[l]
}

// SamplerScale is the factor LevelShedEvents (and above) applies to
// the state sampler's period.
const SamplerScale = 4

// Reason explains why a transition happened.
type Reason int32

const (
	// ReasonOverCeiling: the EWMA overhead ratio exceeded the ceiling.
	ReasonOverCeiling Reason = iota
	// ReasonBackpressure: downstream signalled congestion (an
	// OVERLOADED ack from psxd, or the ingest sink spilling to disk).
	ReasonBackpressure
	// ReasonRecovered: the ratio stayed under the step-up threshold for
	// the full hysteresis window; one rung recovered.
	ReasonRecovered

	numReasons int32 = iota
)

var reasonNames = [...]string{
	ReasonOverCeiling:  "over-ceiling",
	ReasonBackpressure: "backpressure",
	ReasonRecovered:    "recovered",
}

func (r Reason) String() string {
	if r < 0 || int32(r) >= numReasons {
		return fmt.Sprintf("reason(%d)", int32(r))
	}
	return reasonNames[r]
}

// Transition is one recorded ladder move.
type Transition struct {
	Time   int64 // governor clock (ns) at the decision
	From   Level
	To     Level
	Reason Reason
	Ratio  float64 // EWMA overhead ratio at the decision
}

func (t Transition) String() string {
	return fmt.Sprintf("%s -> %s (%s, ratio %.4f)", t.From, t.To, t.Reason, t.Ratio)
}

// pad keeps each CostMeter counter on its own cache line so the two
// writer populations (event threads, the sampler goroutine) never
// false-share.
type pad [56]byte

// CostMeter accumulates profiling cost in nanoseconds, split by
// component. All methods are safe for concurrent use; Add* are single
// atomic adds sized for the measurement hot path.
type CostMeter struct {
	record  atomic.Int64 // event-callback time, join stack walks included
	_       pad
	sampler atomic.Int64 // asynchronous state-sampler time
	_       pad
}

// AddRecord charges ns of event-callback time.
func (m *CostMeter) AddRecord(ns int64) { m.record.Add(ns) }

// AddSampler charges ns of state-sampler time.
func (m *CostMeter) AddSampler(ns int64) { m.sampler.Add(ns) }

// Total returns the accumulated profiling cost across components.
func (m *CostMeter) Total() int64 { return m.record.Load() + m.sampler.Load() }

// DefaultTick is the measurement period when Config.Tick is zero.
const DefaultTick = 100 * time.Millisecond

// The controller's tuning: the EWMA smoothing factor (higher reacts
// faster), and the hysteresis that recovers one rung only after
// stepUpTicks consecutive ticks under Ceiling×stepUpFraction, so a
// recovered rung does not immediately re-trip.
const (
	alpha          = 0.3
	stepUpTicks    = 5
	stepUpFraction = 0.5
)

// Config parameterizes a Governor.
type Config struct {
	// Ceiling is the target maximum overhead: profiling ns per wall ns,
	// as a fraction in (0, 1]. Required.
	Ceiling float64

	// Tick is the measurement period. Zero means DefaultTick (100ms).
	Tick time.Duration

	// Now is the governor's clock in nanoseconds; injectable so tests
	// drive the EWMA deterministically. Zero means a monotonic clock.
	Now func() int64

	// OnTransition, when set, observes every ladder move, called from
	// the tick path (the governor goroutine, or whatever calls Tick).
	OnTransition func(Transition)
}

// Governor is the overhead controller. Construct with New, feed its
// Meter from the measurement paths, then either Start its own tick
// goroutine or call Tick from a caller-owned cadence.
type Governor struct {
	cfg   Config
	now   func() int64
	meter CostMeter

	level        atomic.Int32
	backpressure atomic.Uint32 // latched congestion signal, consumed per tick
	stepsDown    atomic.Uint64
	stepsUp      atomic.Uint64
	ratioMilli   atomic.Int64 // EWMA ratio ×1e6, for lock-free readers

	// Tick-path-private state (a single goroutine ticks).
	rung       int // index into ladder of the current level
	lastNow    int64
	lastCost   int64
	ewma       float64
	underTicks int
	primed     bool

	mu    sync.Mutex
	steps []Transition

	done chan struct{}
	wg   sync.WaitGroup
}

// New builds a governor at LevelFull. Ceiling must be in (0, 1].
func New(cfg Config) (*Governor, error) {
	if cfg.Ceiling <= 0 || cfg.Ceiling > 1 {
		return nil, fmt.Errorf("degrade: overhead ceiling %v out of range (0, 1]", cfg.Ceiling)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	now := cfg.Now
	if now == nil {
		epoch := time.Now()
		now = func() int64 { return int64(time.Since(epoch)) }
	}
	return &Governor{cfg: cfg, now: now, done: make(chan struct{})}, nil
}

// Meter returns the governor's cost meter; measurement paths charge it.
func (g *Governor) Meter() *CostMeter { return &g.meter }

// Level returns the current ladder level with a single atomic load —
// the hot path's gate.
func (g *Governor) Level() Level { return Level(g.level.Load()) }

// Ratio returns the current EWMA overhead ratio.
func (g *Governor) Ratio() float64 { return float64(g.ratioMilli.Load()) / 1e6 }

// Ceiling returns the configured overhead ceiling.
func (g *Governor) Ceiling() float64 { return g.cfg.Ceiling }

// StepsDown and StepsUp count ladder moves in each direction.
func (g *Governor) StepsDown() uint64 { return g.stepsDown.Load() }
func (g *Governor) StepsUp() uint64   { return g.stepsUp.Load() }

// Steps returns a copy of the full transition history in decision
// order.
func (g *Governor) Steps() []Transition {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Transition(nil), g.steps...)
}

// Backpressure latches downstream congestion; the next tick consumes
// it as an immediate step-down. Safe from any goroutine, any rate: the
// latch coalesces a burst of signals into at most one rung per tick,
// so a flood of OVERLOADED acks cannot slam the ladder to the bottom
// between measurements.
func (g *Governor) Backpressure() { g.backpressure.Store(1) }

// Start launches the governor's own tick goroutine at the configured
// cadence. Callers that need deterministic control skip Start and call
// Tick themselves.
func (g *Governor) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.Tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				g.Tick()
			case <-g.done:
				return
			}
		}
	}()
}

// Stop terminates the Start goroutine and waits it out. Idempotent
// against double stop is not needed; the tool stops once.
func (g *Governor) Stop() {
	close(g.done)
	g.wg.Wait()
}

// Tick performs one measurement-and-control step: sample the meter
// against wall time, fold into the EWMA, and move at most one ladder
// rung. Only one goroutine may call Tick.
func (g *Governor) Tick() {
	now := g.now()
	cost := g.meter.Total()
	if !g.primed {
		// First tick establishes the baseline; no interval to measure.
		g.lastNow, g.lastCost = now, cost
		g.primed = true
		return
	}
	wall := now - g.lastNow
	if wall <= 0 {
		return // clock did not advance; keep the baseline
	}
	ratio := float64(cost-g.lastCost) / float64(wall)
	g.lastNow, g.lastCost = now, cost
	g.ewma = alpha*ratio + (1-alpha)*g.ewma
	g.ratioMilli.Store(int64(g.ewma * 1e6))

	bottom := g.rung == len(ladder)-1
	congested := g.backpressure.Swap(0) != 0
	switch {
	case congested && !bottom:
		g.underTicks = 0
		g.move(g.rung+1, ReasonBackpressure, now)
	case g.ewma > g.cfg.Ceiling && !bottom:
		g.underTicks = 0
		g.move(g.rung+1, ReasonOverCeiling, now)
	case g.ewma < g.cfg.Ceiling*stepUpFraction && g.rung > 0:
		g.underTicks++
		if g.underTicks >= stepUpTicks {
			g.underTicks = 0
			g.move(g.rung-1, ReasonRecovered, now)
		}
	default:
		g.underTicks = 0
	}
}

// move commits one transition to ladder[rung]: level store, counters,
// history, hook.
func (g *Governor) move(rung int, why Reason, now int64) {
	from, to := ladder[g.rung], ladder[rung]
	g.rung = rung
	g.level.Store(int32(to))
	if to > from {
		g.stepsDown.Add(1)
	} else {
		g.stepsUp.Add(1)
	}
	tr := Transition{Time: now, From: from, To: to, Reason: why, Ratio: g.ewma}
	g.mu.Lock()
	g.steps = append(g.steps, tr)
	g.mu.Unlock()
	if g.cfg.OnTransition != nil {
		g.cfg.OnTransition(tr)
	}
}
