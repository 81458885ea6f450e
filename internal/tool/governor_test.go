package tool

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"goomp/internal/analysis"
	"goomp/internal/collector"
	"goomp/internal/degrade"
	"goomp/internal/faketime"
	"goomp/internal/omp"
	"goomp/internal/perf"
)

// driveToCountersOnly runs empty parallel regions, one round per
// governor tick, until the ladder bottoms out (the ceiling is set so
// low that any measured cost at all is over budget). It runs on fake
// time, where no tick lands while the regions run: the first tick
// takes the baseline and each later one steps a rung down, so from any
// rung the bottom is at most len(ladder) = 3 ticks away.
func driveToCountersOnly(t *testing.T, tl *Tool, rt *omp.RT) {
	t.Helper()
	for tick := 0; tl.Report().GovernorLevel != degrade.LevelCountersOnly; tick++ {
		if tick == 3 {
			rep := tl.Report()
			t.Fatalf("governor not at counters-only after %d ticks; level=%v ratio=%v steps=%v",
				tick, rep.GovernorLevel, rep.GovernorRatio, rep.GovernorSteps)
		}
		for i := 0; i < 20; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
		time.Sleep(degrade.DefaultTick)
		faketime.Wait()
	}
}

// TestGovernorLadderDescends pins the overhead governor end to end: an
// unreachably low ceiling makes every tick measure the profiling cost
// as over budget, so the ladder must walk all the way down to
// counters-only one rung at a time, each transition must land in the
// report, and each must also be a decodable EventGovernor sample in
// the trace itself.
func TestGovernorLadderDescends(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		localDir := t.TempDir()
		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		opts := FullMeasurement()
		opts.StreamDir = localDir
		opts.OverheadCeiling = 1e-9 // any measured cost at all is over budget
		tl, err := AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Detach() // a failure stops the tool inside the bubble too
		driveToCountersOnly(t, tl, rt)
		tl.Detach()

		rep := tl.Report()
		if rep.GovernorCeiling != 1e-9 {
			t.Errorf("report ceiling = %v", rep.GovernorCeiling)
		}
		// The ladder's rungs, in descent order.
		rung := map[degrade.Level]int{degrade.LevelFull: 0, degrade.LevelShedEvents: 1, degrade.LevelCountersOnly: 2}
		if len(rep.GovernorSteps) < len(rung)-1 {
			t.Fatalf("only %d transitions recorded: %v", len(rep.GovernorSteps), rep.GovernorSteps)
		}
		// The history must be a chain (each step leaves from where the last
		// arrived), moving one rung at a time, starting at full fidelity
		// and touching the bottom. Step-ups may appear after the bottom —
		// the governor probes recovery by design — but every step down must
		// carry a pressure reason and every step up the recovery reason.
		level := degrade.LevelFull
		bottomed := false
		for i, tr := range rep.GovernorSteps {
			if tr.From != level {
				t.Fatalf("step %d leaves from %v, previous arrived at %v", i, tr.From, level)
			}
			switch to, ok := rung[tr.To]; {
			case ok && to == rung[tr.From]+1:
				if tr.Reason != degrade.ReasonOverCeiling && tr.Reason != degrade.ReasonBackpressure {
					t.Fatalf("step-down %d reason = %v", i, tr.Reason)
				}
			case ok && to == rung[tr.From]-1:
				if tr.Reason != degrade.ReasonRecovered {
					t.Fatalf("step-up %d reason = %v", i, tr.Reason)
				}
			default:
				t.Fatalf("step %d jumps %v -> %v", i, tr.From, tr.To)
			}
			level = tr.To
			if level == degrade.LevelCountersOnly {
				bottomed = true
			}
		}
		if !bottomed {
			t.Fatalf("ladder never reached counters-only: %v", rep.GovernorSteps)
		}

		// The same history must be decodable from the trace alone.
		var samples []perf.Sample
		files, err := perf.FindTraceFiles(localDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := perf.ReadTraceStream(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			samples = append(samples, buf.Samples()...)
		}
		steps := analysis.GovernorSteps(samples)
		if len(steps) != len(rep.GovernorSteps) {
			t.Fatalf("trace holds %d governor steps, report %d", len(steps), len(rep.GovernorSteps))
		}
		for i, st := range steps {
			if st.From != rep.GovernorSteps[i].From || st.To != rep.GovernorSteps[i].To ||
				st.Reason != rep.GovernorSteps[i].Reason {
				t.Errorf("trace step %d = %+v, report %+v", i, st, rep.GovernorSteps[i])
			}
		}
		// Governor samples ride a pseudo-thread so they never collide with
		// a real thread's single-writer buffer.
		for _, s := range samples {
			if collector.Event(s.Event) == collector.EventGovernor && s.Thread != govThread {
				t.Errorf("governor sample on thread %d", s.Thread)
			}
		}

		// The human-readable report must say, loudly, that the run degraded.
		var out bytes.Buffer
		rep.WriteTo(&out)
		for _, want := range []string{"governor:", "counters-only"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("report text missing %q:\n%s", want, out.String())
			}
		}
		// ompreport renders the same history through the shared analysis
		// renderer; sanity-check it here against the decoded trace.
		var gov bytes.Buffer
		analysis.WriteGovernorReport(&gov, steps)
		if !strings.Contains(gov.String(), "shed-events -> counters-only") {
			t.Errorf("governor report:\n%s", gov.String())
		}
	})
}

// TestGovernorCountersOnlyShedsTraceWork: once the ladder bottoms out,
// event callbacks must stop appending trace samples — the dispatch
// counters remain the record — so the trace buffers stop growing while
// the level holds at counters-only.
func TestGovernorCountersOnlyShedsTraceWork(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		opts := FullMeasurement()
		opts.OverheadCeiling = 1e-9
		tl, err := AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Detach()
		driveToCountersOnly(t, tl, rt)

		// On fake time no tick lands while the window's regions run, so the
		// ladder must hold at counters-only throughout it (step count
		// unchanged); the window must show counter growth but zero sample
		// growth.
		before := tl.Report()
		for i := 0; i < 100; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
		after := tl.Report()
		if after.GovernorLevel != degrade.LevelCountersOnly ||
			len(after.GovernorSteps) != len(before.GovernorSteps) {
			t.Fatalf("the ladder moved in a window without a tick: %v", after.GovernorSteps)
		}
		var beforeEvents, afterEvents uint64
		for _, n := range before.Events {
			beforeEvents += n
		}
		for _, n := range after.Events {
			afterEvents += n
		}
		if afterEvents <= beforeEvents {
			t.Fatalf("dispatch counters stopped at counters-only: %d -> %d",
				beforeEvents, afterEvents)
		}
		if after.Samples != before.Samples {
			t.Fatalf("trace buffers grew at counters-only: %d -> %d samples",
				before.Samples, after.Samples)
		}
	})
}

// TestGovernorBackpressureStepAndRecovery: a latched backpressure
// signal steps the ladder down even when measured overhead is far
// under the ceiling, and once the congestion clears the hysteresis
// streak climbs back to full fidelity with the recovery reason.
func TestGovernorBackpressureStepAndRecovery(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		opts := FullMeasurement()
		// Generous ceiling: the idle EWMA sits far under the step-up band,
		// so recovery is limited only by the hysteresis streak.
		opts.OverheadCeiling = 0.95
		tl, err := AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Detach()

		// The same latch OVERLOADED acks and spill engagement pull. On fake
		// time the ladder moves at exact ticks: the first only takes the
		// baseline, so the second steps down, and the hysteresis streak of
		// five quiet ticks climbs back at the seventh.
		tl.gov.Backpressure()
		time.Sleep(2 * degrade.DefaultTick)
		faketime.Wait()
		if tl.Report().GovernorLevel == degrade.LevelFull {
			t.Fatal("backpressure never stepped the governor down")
		}
		// Idle: the EWMA decays and the streak steps back up to full.
		time.Sleep(5 * degrade.DefaultTick)
		faketime.Wait()
		if tl.Report().GovernorLevel != degrade.LevelFull {
			t.Fatalf("governor never recovered; steps: %v", tl.Report().GovernorSteps)
		}
		rep := tl.Report()
		down, up := rep.GovernorSteps[0], rep.GovernorSteps[len(rep.GovernorSteps)-1]
		if down.Reason != degrade.ReasonBackpressure || down.Time != int64(2*degrade.DefaultTick) {
			t.Fatalf("first step = %v at %v, want a backpressure step-down at the second tick",
				down, time.Duration(down.Time))
		}
		if up.Reason != degrade.ReasonRecovered || up.To != degrade.LevelFull || up.Time != int64(7*degrade.DefaultTick) {
			t.Fatalf("last step = %v at %v, want recovery to full at the seventh tick", up, time.Duration(up.Time))
		}
	})
}

// TestGovernorChargesTheJoinWalk: the walk a join makes is the tool's
// own cost, and reaches the governor's meter with the join. Only the
// join is registered, so it is the only thing the meter can hold.
func TestGovernorChargesTheJoinWalk(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.Events = []collector.Event{collector.EventJoin}
	opts.OverheadCeiling = 1 // never over: the ladder stays at full fidelity
	opts.GovernorTick = time.Hour
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	if got := tl.gov.Meter().Total(); got != 0 {
		t.Fatalf("meter holds %d before any join", got)
	}
	rt.Parallel(func(*omp.ThreadCtx) {})
	if got := tl.gov.Meter().Total(); got <= 0 {
		t.Errorf("meter holds %d after a join", got)
	}
}

// TestGovernorFirstStepShedsBarriersAndSteals: the first step down is
// one that stores less. One backpressure tick from full must stop the
// storage of implicit-barrier and steal samples, and of join stacks,
// while fork and join are still stored and every shed event is still
// counted.
func TestGovernorFirstStepShedsBarriersAndSteals(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		rt := omp.New(omp.Config{NumThreads: 4})
		defer rt.Close()
		opts := FullMeasurement()
		opts.OverheadCeiling = 1
		opts.GovernorTick = time.Hour // this test is the only ticker
		tl, err := AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Detach() // a failure stops the tool inside the bubble too
		tl.gov.Tick()     // the baseline
		time.Sleep(time.Millisecond)
		tl.gov.Backpressure()
		tl.gov.Tick()
		if got := tl.gov.Level(); got != degrade.LevelShedEvents {
			t.Fatalf("one backpressure tick from full reached %v, want %v", got, degrade.LevelShedEvents)
		}
		for i := 0; i < 20; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {
				tc.ForSched(256, omp.ScheduleSteal, 1, func(lo, hi int) {
					if lo < 8 {
						for s := 0; s < 50; s++ {
							runtime.Gosched()
						}
					}
				})
			})
		}
		tl.Detach()

		stored := make(map[collector.Event]int)
		for _, tb := range tl.snapshotBuffers() {
			for _, s := range tb.buf.Samples() {
				e := collector.Event(s.Event)
				stored[e]++
				if e == collector.EventJoin && s.StackID != perf.NoStack {
					t.Fatalf("a join stored a stack at %v", degrade.LevelShedEvents)
				}
			}
		}
		rep := tl.Report()
		for _, e := range []collector.Event{collector.EventFork, collector.EventJoin} {
			if stored[e] == 0 {
				t.Errorf("%v: no sample stored at %v", e, degrade.LevelShedEvents)
			}
		}
		for _, e := range []collector.Event{collector.EventThrBeginIBar, collector.EventThrEndIBar,
			collector.EventChunkSteal, collector.EventTaskSteal} {
			if stored[e] != 0 {
				t.Errorf("%v: %d samples stored at %v", e, stored[e], degrade.LevelShedEvents)
			}
		}
		if rep.Events[collector.EventThrBeginIBar] == 0 || rep.Events[collector.EventChunkSteal] == 0 {
			t.Errorf("the shed classes were not dispatched: %v", rep.Events)
		}
	})
}

// TestRelayHighWaterStepsGovernorDown: the streamer stalls in its first
// file open, so every sealed chunk stays in the relay. Once the relay
// is three quarters full it latches backpressure, and the governor must
// take a backpressure step while the relay has shed nothing: a run with
// a ceiling steps down before it loses chunks. The regions pause while
// the step is awaited, so the last quarter of the relay is the margin
// the step has, whatever the machine's speed.
func TestRelayHighWaterStepsGovernorDown(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		stall := make(chan struct{})
		opts := FullMeasurement()
		opts.StreamDir = t.TempDir()
		opts.OverheadCeiling = 1
		opts.OpenTraceFile = func(path string) (io.WriteCloser, error) {
			<-stall
			return os.Create(path)
		}
		tl, err := AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Detach()
		defer close(stall) // before Detach, which waits for the streamer

		backpressured := func() bool {
			for _, s := range tl.Report().GovernorSteps {
				if s.Reason == degrade.ReasonBackpressure {
					return true
				}
			}
			return false
		}
		relay := tl.stream.relay
		for round := 0; 4*len(relay.C) < 3*cap(relay.C); round++ {
			if round == 100000 {
				t.Fatalf("the relay never reached its high-water mark: %d of %d queued", len(relay.C), cap(relay.C))
			}
			if backpressured() {
				t.Fatalf("backpressure step with the relay at %d of %d, under its high-water mark", len(relay.C), cap(relay.C))
			}
			// A few regions at a time: well short of the relay's last
			// quarter, so the loop cannot overshoot into a shed.
			for i := 0; i < 20; i++ {
				rt.Parallel(func(*omp.ThreadCtx) {})
			}
		}
		// No tick has landed yet on fake time: the first takes the baseline
		// and the second must take the step.
		time.Sleep(2 * degrade.DefaultTick)
		faketime.Wait()
		if !backpressured() {
			t.Fatalf("no backpressure step with the relay at %d of %d; steps: %v",
				len(relay.C), cap(relay.C), tl.Report().GovernorSteps)
		}
		if n := tl.Report().RelayDropped; n != 0 {
			t.Fatalf("the relay shed %d chunks before the governor stepped down", n)
		}
	})
}
