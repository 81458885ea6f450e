package analysis

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"goomp/internal/collector"
	"goomp/internal/degrade"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

func sample(t int64, th int32, e collector.Event) perf.Sample {
	return perf.Sample{Time: t, Thread: th, Event: int32(e), StackID: perf.NoStack}
}

func TestTimelineSimplePair(t *testing.T) {
	tls := Timelines([]perf.Sample{
		sample(10, 0, collector.EventThrBeginIBar),
		sample(30, 0, collector.EventThrEndIBar),
	})
	if len(tls) != 1 || len(tls[0].Intervals) != 1 {
		t.Fatalf("timelines = %+v", tls)
	}
	iv := tls[0].Intervals[0]
	if iv.Kind != collector.EventThrBeginIBar || iv.Duration() != 20 {
		t.Errorf("interval = %+v", iv)
	}
	if tls[0].Unbalanced != 0 {
		t.Errorf("unbalanced = %d", tls[0].Unbalanced)
	}
}

func TestTimelineNesting(t *testing.T) {
	// A lock wait inside a loop: inner interval closes first.
	tls := Timelines([]perf.Sample{
		sample(0, 1, collector.EventThrBeginLoop),
		sample(5, 1, collector.EventThrBeginLkwt),
		sample(9, 1, collector.EventThrEndLkwt),
		sample(20, 1, collector.EventThrEndLoop),
	})
	ivs := tls[0].Intervals
	if len(ivs) != 2 {
		t.Fatalf("intervals = %+v", ivs)
	}
	at := ActivityTimes(tls[0])
	if at[collector.EventThrBeginLkwt] != 4 || at[collector.EventThrBeginLoop] != 20 {
		t.Errorf("activity times = %v", at)
	}
}

func TestTimelineUnbalanced(t *testing.T) {
	tls := Timelines([]perf.Sample{
		sample(0, 0, collector.EventThrBeginIBar),
		sample(4, 0, collector.EventThrBeginLkwt), // dangling open
		sample(9, 0, collector.EventThrEndIBar),   // closes ibar, discards lkwt
		sample(12, 0, collector.EventThrEndEBar),  // end with no open
	})
	tl := tls[0]
	if tl.Unbalanced != 2 {
		t.Errorf("unbalanced = %d, want 2", tl.Unbalanced)
	}
	// The ibar interval must still be reconstructed.
	at := ActivityTimes(tl)
	if at[collector.EventThrBeginIBar] != 9 {
		t.Errorf("ibar time = %v", at[collector.EventThrBeginIBar])
	}
}

func TestTimelineDanglingOpenClosedAtEnd(t *testing.T) {
	tls := Timelines([]perf.Sample{
		sample(0, 0, collector.EventThrBeginIdle),
		sample(50, 0, int32ToEvent(-1)), // ignored marker
	})
	_ = tls
	tls = Timelines([]perf.Sample{
		sample(0, 0, collector.EventThrBeginIdle),
		sample(7, 0, collector.EventFork), // non-interval event advances time
	})
	tl := tls[0]
	if len(tl.Intervals) != 1 || tl.Intervals[0].End != 7 {
		t.Errorf("dangling open handling: %+v", tl)
	}
	if tl.Unbalanced != 1 {
		t.Errorf("unbalanced = %d", tl.Unbalanced)
	}
}

func int32ToEvent(v int32) collector.Event { return collector.Event(v) }

func TestTimelinesMultiThreadSorted(t *testing.T) {
	// Unsorted input across two threads.
	tls := Timelines([]perf.Sample{
		sample(30, 1, collector.EventThrEndIBar),
		sample(10, 0, collector.EventThrBeginIBar),
		sample(20, 1, collector.EventThrBeginIBar),
		sample(15, 0, collector.EventThrEndIBar),
	})
	if len(tls) != 2 {
		t.Fatalf("threads = %d", len(tls))
	}
	if tls[0].Thread != 0 || tls[1].Thread != 1 {
		t.Error("threads not sorted")
	}
	if tls[0].Intervals[0].Duration() != 5 || tls[1].Intervals[0].Duration() != 10 {
		t.Errorf("durations wrong: %+v", tls)
	}
}

// TestTimelinesEqualTimesKeepSampleOrder: the counter rounds to
// perf.ClockQuantum, so a begin and its end often read the same time.
// A thread's samples out of time order are sorted by time, and samples
// of equal time keep their order in the trace: every barrier below opens
// and closes in one quantum, in pairs whose times fall, so the sort has
// to move every pair and must not swap an end before its begin.
func TestTimelinesEqualTimesKeepSampleOrder(t *testing.T) {
	const pairs = 64
	var samples []perf.Sample
	for i := pairs; i > 0; i-- {
		at := int64(i) * int64(perf.ClockQuantum)
		samples = append(samples, sample(at, 0, collector.EventThrBeginIBar), sample(at, 0, collector.EventThrEndIBar))
	}
	tls := Timelines(samples)
	if len(tls) != 1 || tls[0].Unbalanced != 0 || len(tls[0].Intervals) != pairs {
		t.Fatalf("timelines = %+v, want %d balanced intervals", tls, pairs)
	}
	for i, iv := range tls[0].Intervals {
		if at := int64(i+1) * int64(perf.ClockQuantum); iv.Start != at || iv.End != at {
			t.Fatalf("interval %d = [%d, %d], want [%d, %d]", i, iv.Start, iv.End, at, at)
		}
	}
}

// Property: with well-formed nested begin/end sequences, reconstruction
// is exact — every interval is recovered, none unbalanced.
func TestTimelineWellFormedProperty(t *testing.T) {
	begins := []collector.Event{
		collector.EventThrBeginIBar, collector.EventThrBeginLkwt,
		collector.EventThrBeginLoop, collector.EventThrBeginTask,
	}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		var samples []perf.Sample
		var stack []collector.Event
		tnow := int64(0)
		opens := 0
		for i := 0; i < n || len(stack) > 0; i++ {
			tnow += int64(rng.Intn(10) + 1)
			if len(stack) > 0 && (rng.Intn(2) == 0 || i >= n) {
				e := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				samples = append(samples, sample(tnow, 0, pairs[e]))
			} else if i < n {
				e := begins[rng.Intn(len(begins))]
				stack = append(stack, e)
				samples = append(samples, sample(tnow, 0, e))
				opens++
			}
		}
		tls := Timelines(samples)
		if len(tls) != 1 {
			return opens == 0 && len(tls) == 0
		}
		return tls[0].Unbalanced == 0 && len(tls[0].Intervals) == opens
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBarrierImbalance(t *testing.T) {
	mk := func(th int32, barrierNs int64) Timeline {
		return Timeline{Thread: th, Intervals: []Interval{
			{Kind: collector.EventThrBeginIBar, Start: 0, End: barrierNs},
		}}
	}
	// Even: imbalance 1.
	even := []Timeline{mk(0, 100), mk(1, 100)}
	if got := BarrierImbalance(even); got != 1 {
		t.Errorf("even imbalance = %v", got)
	}
	// One thread waits 3x the mean of (300,100) = 200 → 1.5.
	skew := []Timeline{mk(0, 300), mk(1, 100)}
	if got := BarrierImbalance(skew); got != 1.5 {
		t.Errorf("skewed imbalance = %v", got)
	}
	if BarrierImbalance(nil) != 0 {
		t.Error("empty imbalance should be 0")
	}
}

func TestEndToEndWithRealTool(t *testing.T) {
	// Full pipeline: run a workload under the tool with barrier events,
	// pull the samples, reconstruct timelines.
	rt := omp.New(omp.Config{NumThreads: 3})
	defer rt.Close()
	tl, err := tool.AttachRuntime(rt, tool.Options{
		Measure: true,
		Events: []collector.Event{
			collector.EventFork, collector.EventJoin,
			collector.EventThrBeginEBar, collector.EventThrEndEBar,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < 5; i++ {
			tc.Barrier()
		}
	})
	tl.Detach()

	// Pull samples through the binary trace round trip, as an offline
	// analyzer would.
	var samples []perf.Sample
	bufs := map[int32]*bytes.Buffer{}
	if err := tl.WriteTraces(func(th int32) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs[th] = b
		return b, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, b := range bufs {
		tb, err := perf.ReadTraceStream(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, tb.Samples()...)
	}

	tls := Timelines(samples)
	if len(tls) != 3 {
		t.Fatalf("threads in timeline = %d, want 3", len(tls))
	}
	for _, timeline := range tls {
		at := ActivityTimes(timeline)
		if at[collector.EventThrBeginEBar] <= 0 {
			t.Errorf("thread %d: no explicit barrier time", timeline.Thread)
		}
	}
	if imb := BarrierImbalance(tls); imb < 1 {
		t.Errorf("imbalance = %v, want >= 1", imb)
	}

	var out bytes.Buffer
	Report(&out, tls)
	if !strings.Contains(out.String(), "OMP_EVENT_THR_BEGIN_EBAR") {
		t.Errorf("report missing barrier rows:\n%s", out.String())
	}
}

func govSample(t int64, from, to degrade.Level, reason degrade.Reason) perf.Sample {
	return perf.Sample{
		Time:    t,
		Thread:  -1,
		Event:   int32(collector.EventGovernor),
		State:   int32(to),
		Region:  uint64(from),
		Site:    uint64(reason),
		StackID: perf.NoStack,
	}
}

func TestGovernorSteps(t *testing.T) {
	// Levels 1 and 2 are the retired reduced-sampler and no-stacks
	// rungs: traces that hold them must still decode and render.
	samples := []perf.Sample{
		sample(10, 0, collector.EventThrBeginIBar),
		govSample(50, degrade.Level(1), degrade.Level(2), degrade.ReasonBackpressure),
		govSample(20, degrade.LevelFull, degrade.Level(1), degrade.ReasonOverCeiling),
		sample(30, 0, collector.EventThrEndIBar),
		govSample(90, degrade.Level(2), degrade.Level(1), degrade.ReasonRecovered),
	}
	steps := GovernorSteps(samples)
	if len(steps) != 3 {
		t.Fatalf("steps = %+v", steps)
	}
	// Ordered by time, fields decoded from the sample slots.
	if steps[0].Time != 20 || steps[0].From != degrade.LevelFull ||
		steps[0].To != degrade.Level(1) || steps[0].Reason != degrade.ReasonOverCeiling {
		t.Errorf("step[0] = %+v", steps[0])
	}
	if steps[1].To != degrade.Level(2) || steps[1].Reason != degrade.ReasonBackpressure {
		t.Errorf("step[1] = %+v", steps[1])
	}
	if got := FinalGovernorLevel(steps); got != degrade.Level(1) {
		t.Errorf("final level = %v", got)
	}
	if got := FinalGovernorLevel(nil); got != degrade.LevelFull {
		t.Errorf("final level of empty = %v", got)
	}

	var buf bytes.Buffer
	WriteGovernorReport(&buf, steps)
	out := buf.String()
	for _, want := range []string{"full -> reduced-sampler", "over-ceiling", "backpressure", "recovered"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Today's ladder: full -> shed-events -> counters-only.
	steps = GovernorSteps([]perf.Sample{
		govSample(60, degrade.LevelShedEvents, degrade.LevelCountersOnly, degrade.ReasonOverCeiling),
		govSample(40, degrade.LevelFull, degrade.LevelShedEvents, degrade.ReasonBackpressure),
	})
	if len(steps) != 2 || steps[0].To != degrade.LevelShedEvents || steps[1].From != degrade.LevelShedEvents {
		t.Fatalf("steps = %+v", steps)
	}
	if got := FinalGovernorLevel(steps); got != degrade.LevelCountersOnly {
		t.Errorf("final level = %v", got)
	}
	buf.Reset()
	WriteGovernorReport(&buf, steps)
	for _, want := range []string{"full -> shed-events", "shed-events -> counters-only"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTimelinesSkipGovernorSamples(t *testing.T) {
	tls := Timelines([]perf.Sample{
		govSample(5, degrade.LevelFull, degrade.LevelShedEvents, degrade.ReasonOverCeiling),
		sample(10, 0, collector.EventThrBeginIBar),
		sample(30, 0, collector.EventThrEndIBar),
	})
	for _, tl := range tls {
		if tl.Thread == -1 {
			t.Fatalf("governor pseudo-thread leaked into timelines: %+v", tls)
		}
	}
}
