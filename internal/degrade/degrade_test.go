package degrade

import (
	"testing"
	"time"
)

// fakeClock drives the governor deterministically: each Tick sees
// exactly `step` of wall time.
type fakeClock struct{ now int64 }

func (c *fakeClock) advance(d time.Duration) { c.now += int64(d) }

func newTestGov(t *testing.T, cfg Config, clk *fakeClock) *Governor {
	t.Helper()
	cfg.Now = func() int64 { return clk.now }
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g.Tick() // prime the baseline
	return g
}

func TestCeilingValidation(t *testing.T) {
	for _, c := range []float64{0, -0.1, 1.5} {
		if _, err := New(Config{Ceiling: c}); err == nil {
			t.Errorf("ceiling %v: want error, got nil", c)
		}
	}
	if _, err := New(Config{Ceiling: 0.02}); err != nil {
		t.Fatalf("valid ceiling rejected: %v", err)
	}
}

// Overhead above the ceiling must walk the ladder down one rung per
// tick until counters-only, and no further.
func TestStepsDownUnderSustainedOverload(t *testing.T) {
	clk := &fakeClock{}
	g := newTestGov(t, Config{Ceiling: 0.02}, clk)

	for i := 0; i < 8; i++ {
		// 10ms of profiling cost against 100ms of wall: ratio 0.10,
		// and an EWMA over the ceiling from the first tick on (0.03).
		g.Meter().AddRecord(int64(10 * time.Millisecond))
		clk.advance(100 * time.Millisecond)
		g.Tick()
	}
	if got := g.Level(); got != LevelCountersOnly {
		t.Fatalf("level = %v, want %v", got, LevelCountersOnly)
	}
	if got := g.StepsDown(); got != uint64(len(ladder)-1) {
		t.Fatalf("stepsDown = %d, want %d (one per rung, saturating)", got, len(ladder)-1)
	}
	steps := g.Steps()
	if len(steps) != len(ladder)-1 {
		t.Fatalf("transitions = %d, want %d", len(steps), len(ladder)-1)
	}
	for i, tr := range steps {
		if tr.From != ladder[i] || tr.To != ladder[i+1] || tr.Reason != ReasonOverCeiling {
			t.Errorf("step %d = %v, want %v -> %v over-ceiling", i, tr, ladder[i], ladder[i+1])
		}
	}
}

// Recovery requires stepUpTicks consecutive ticks under
// ceiling*stepUpFraction; any tick above the band resets the window.
// Costs are sized for alpha = 0.3, ceiling 0.02, band 0.01.
func TestHysteresisStepUp(t *testing.T) {
	clk := &fakeClock{}
	g := newTestGov(t, Config{Ceiling: 0.02}, clk)
	tick := func(cost time.Duration) {
		g.Meter().AddRecord(int64(cost))
		clk.advance(100 * time.Millisecond)
		g.Tick()
	}

	// Trip one rung down: raw ratio 0.08, EWMA 0.024. The decay stays
	// under the ceiling, so the ladder does not go further.
	tick(8 * time.Millisecond)
	if g.Level() != LevelShedEvents {
		t.Fatalf("level = %v, want %v", g.Level(), LevelShedEvents)
	}

	// Two quiet ticks decay the EWMA through the dead band (0.0168,
	// 0.0118), then stepUpTicks-1 more land under it: not enough for
	// the window.
	for i := 0; i < 2+stepUpTicks-1; i++ {
		tick(0)
	}
	if g.Level() != LevelShedEvents {
		t.Fatalf("stepped up after %d ticks under the band, want %d-tick hysteresis", stepUpTicks-1, stepUpTicks)
	}

	// A tick inside the dead band (EWMA 0.014: under ceiling, over half
	// of it) must reset the window without stepping either way.
	tick(4 * time.Millisecond)
	if g.Level() != LevelShedEvents {
		t.Fatalf("dead-band tick moved the ladder: %v (ratio %.4f)", g.Level(), g.Ratio())
	}

	// A window that was not reset would recover on the next quiet tick;
	// a reset one needs all stepUpTicks of them.
	for i := 0; i < stepUpTicks-1; i++ {
		tick(0)
	}
	if g.Level() != LevelShedEvents {
		t.Fatalf("the dead-band tick did not reset the window: level %v", g.Level())
	}
	tick(0)
	if g.Level() != LevelFull {
		t.Fatalf("level = %v, want %v after hysteresis window", g.Level(), LevelFull)
	}
	if g.StepsUp() != 1 {
		t.Fatalf("stepsUp = %d, want 1", g.StepsUp())
	}
	last := g.Steps()[len(g.Steps())-1]
	if last.Reason != ReasonRecovered || last.From != LevelShedEvents || last.To != LevelFull {
		t.Fatalf("last transition = %v, want recovered shed-events -> full", last)
	}
}

// Backpressure is an immediate step-down independent of the measured
// ratio, and a burst of signals coalesces to one rung per tick.
func TestBackpressureStepsDownOncePerTick(t *testing.T) {
	clk := &fakeClock{}
	g := newTestGov(t, Config{Ceiling: 0.5}, clk)

	for i := 0; i < 10; i++ {
		g.Backpressure() // flood of OVERLOADED acks within one tick
	}
	clk.advance(100 * time.Millisecond)
	g.Tick()
	if g.Level() != LevelShedEvents {
		t.Fatalf("level = %v, want one rung down", g.Level())
	}
	if got := g.Steps()[0].Reason; got != ReasonBackpressure {
		t.Fatalf("reason = %v, want backpressure", got)
	}

	// No new signal: the latch was consumed, the quiet tick must not
	// step down again.
	clk.advance(100 * time.Millisecond)
	g.Tick()
	if g.Level() != LevelShedEvents {
		t.Fatalf("level = %v after quiet tick, want unchanged", g.Level())
	}
}

// The EWMA must smooth a one-tick spike: a single burst above the
// ceiling is absorbed without tripping.
func TestEWMASmoothsSpike(t *testing.T) {
	clk := &fakeClock{}
	g := newTestGov(t, Config{Ceiling: 0.10}, clk)

	// One spike tick: raw ratio 0.3, EWMA 0.09 < ceiling.
	g.Meter().AddRecord(int64(30 * time.Millisecond))
	clk.advance(100 * time.Millisecond)
	g.Tick()
	if g.Level() != LevelFull {
		t.Fatalf("single spike tripped the ladder: %v (ratio %.3f)", g.Level(), g.Ratio())
	}

	// Sustained at 0.3 the EWMA converges above 0.10 and trips.
	for i := 0; i < 10 && g.Level() == LevelFull; i++ {
		g.Meter().AddRecord(int64(30 * time.Millisecond))
		clk.advance(100 * time.Millisecond)
		g.Tick()
	}
	if g.Level() == LevelFull {
		t.Fatalf("sustained overload never tripped (ratio %.3f)", g.Ratio())
	}
}

// OnTransition observes every move in order.
func TestOnTransitionHook(t *testing.T) {
	clk := &fakeClock{}
	var seen []Transition
	cfg := Config{Ceiling: 0.02, OnTransition: func(tr Transition) { seen = append(seen, tr) }}
	g := newTestGov(t, cfg, clk)

	g.Meter().AddRecord(int64(10 * time.Millisecond))
	clk.advance(100 * time.Millisecond)
	g.Tick()
	g.Meter().AddRecord(int64(10 * time.Millisecond))
	clk.advance(100 * time.Millisecond)
	g.Tick()

	if len(seen) != 2 {
		t.Fatalf("hook saw %d transitions, want 2", len(seen))
	}
	if seen[0].To != LevelShedEvents || seen[1].To != LevelCountersOnly {
		t.Fatalf("hook order wrong: %v", seen)
	}
}

// Start/Stop must run the tick loop concurrently with meter writers
// and backpressure signals without racing (exercised under -race).
func TestStartStopConcurrent(t *testing.T) {
	g, err := New(Config{Ceiling: 0.02, Tick: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g.Start()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			g.Meter().AddRecord(1500)
			g.Meter().AddSampler(200)
			g.Backpressure()
			_ = g.Level()
			_ = g.Ratio()
		}
	}()
	<-done
	time.Sleep(5 * time.Millisecond)
	g.Stop()
	if g.Meter().Total() != 1000*1700 {
		t.Fatalf("meter total = %d, want %d", g.Meter().Total(), 1000*1700)
	}
}
