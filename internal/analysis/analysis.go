// Package analysis is the offline half of the measurement pipeline:
// it reconstructs thread behaviour from event traces after the
// application finishes (§IV: "Reconstructing the callstack to provide
// a user view of the program is done offline after the application
// finishes" — the same applies to timeline reconstruction). Given the
// samples a collector tool stored, it rebuilds per-thread interval
// timelines from begin/end event pairs, aggregates time per activity,
// and computes imbalance metrics a performance analyst would read.
package analysis

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"goomp/internal/collector"
	"goomp/internal/degrade"
	"goomp/internal/perf"
)

// Interval is one reconstructed activity span on a thread: Kind is the
// begin event that opened it.
type Interval struct {
	Kind  collector.Event
	Start int64
	End   int64
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return time.Duration(iv.End - iv.Start) }

// pairs maps each begin event to its end event.
var pairs = map[collector.Event]collector.Event{
	collector.EventThrBeginIdle:      collector.EventThrEndIdle,
	collector.EventThrBeginIBar:      collector.EventThrEndIBar,
	collector.EventThrBeginEBar:      collector.EventThrEndEBar,
	collector.EventThrBeginLkwt:      collector.EventThrEndLkwt,
	collector.EventThrBeginCtwt:      collector.EventThrEndCtwt,
	collector.EventThrBeginOdwt:      collector.EventThrEndOdwt,
	collector.EventThrBeginAtwt:      collector.EventThrEndAtwt,
	collector.EventThrBeginMaster:    collector.EventThrEndMaster,
	collector.EventThrBeginSingle:    collector.EventThrEndSingle,
	collector.EventThrBeginOrdered:   collector.EventThrEndOrdered,
	collector.EventThrBeginReduction: collector.EventThrEndReduction,
	collector.EventThrBeginLoop:      collector.EventThrEndLoop,
	collector.EventThrBeginTask:      collector.EventThrEndTask,
}

// opens and closes are pairs as tables, so that pairing a sample is an
// index rather than a map lookup: opens[e] is whether e opens an
// interval, closes[e] the begin event an end event e closes (-1 for
// any other event).
var opens, closes = func() (o [collector.NumEvents]bool, c [collector.NumEvents]collector.Event) {
	for e := range c {
		c[e] = -1
	}
	for b, e := range pairs {
		o[b] = true
		c[e] = b
	}
	return o, c
}()

// known reports whether e indexes the pair tables: a decoded trace may
// carry any int32 in its event column.
func known(e collector.Event) bool { return uint32(e) < uint32(collector.NumEvents) }

// IsBegin reports whether e opens an interval.
func IsBegin(e collector.Event) bool { return known(e) && opens[e] }

// IsEnd reports whether e closes an interval.
func IsEnd(e collector.Event) bool { return known(e) && closes[e] >= 0 }

// Timeline is one thread's reconstructed activity.
type Timeline struct {
	Thread    int32
	Intervals []Interval
	// Unbalanced counts events that could not be paired (an end with
	// no matching open, or opens left dangling at trace end; the
	// latter are closed at the last sample time and still reported as
	// intervals).
	Unbalanced int
}

// threadRecords is one thread's share of the trace while Timelines
// regroups it: first a count, then exactly that many records, each the
// index of a sample rather than a copy of it.
type threadRecords struct {
	thread   int32
	n        int     // records counted
	begins   int     // of which open an interval: the most it can have
	recs     []int32 // indices into the samples, filled to n in trace order
	unsorted bool    // some record is earlier than the one before it
}

// inTimeline reports whether a sample is thread activity: sampler
// records carry no event, and governor transitions ride on a
// pseudo-thread as trace metadata.
func inTimeline(s *perf.Sample) bool {
	return s.Event >= 0 && collector.Event(s.Event) != collector.EventGovernor
}

// maxTimelineSamples is the most samples Timelines takes: it keeps
// each record as an int32 index into them. That is an 80 GiB input
// slice; a trace beyond it wants a streaming report, not a bigger
// index.
const maxTimelineSamples = math.MaxInt32

// Timelines reconstructs one timeline per thread from trace samples.
// Samples may be unsorted; they are ordered by time per thread.
// Nesting is handled with a per-thread stack (a lock wait inside a
// worksharing loop closes before the loop does). It panics on more
// than maxTimelineSamples samples.
func Timelines(samples []perf.Sample) []Timeline {
	if len(samples) > maxTimelineSamples {
		panic(fmt.Sprintf("analysis: Timelines over %d samples, at most %d", len(samples), maxTimelineSamples))
	}
	// Count first, so that every thread's records and intervals are
	// allocated once at their final size. A trace is runs of one
	// thread's samples (a file per thread, a chunk per block), so the
	// thread of the previous sample is looked up once per run.
	index := make(map[int32]int)
	var threads []threadRecords
	cur := -1
	lookup := func(th int32) {
		if cur >= 0 && threads[cur].thread == th {
			return
		}
		i, ok := index[th]
		if !ok {
			i = len(threads)
			index[th] = i
			threads = append(threads, threadRecords{thread: th})
		}
		cur = i
	}
	for i := range samples {
		s := &samples[i]
		if !inTimeline(s) {
			continue
		}
		lookup(s.Thread)
		threads[cur].n++
		if IsBegin(collector.Event(s.Event)) {
			threads[cur].begins++
		}
	}
	total := 0
	for i := range threads {
		total += threads[i].n
	}
	all := make([]int32, total)
	for i := range threads {
		t := &threads[i]
		t.recs, all = all[:0:t.n], all[t.n:]
	}
	for i := range samples {
		s := &samples[i]
		if !inTimeline(s) {
			continue
		}
		lookup(s.Thread)
		t := &threads[cur]
		if n := len(t.recs); n > 0 && s.Time < samples[t.recs[n-1]].Time {
			t.unsorted = true
		}
		t.recs = append(t.recs, int32(i))
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i].thread < threads[j].thread })

	out := make([]Timeline, 0, len(threads))
	var stack []Interval
	for i := range threads {
		t := &threads[i]
		if t.unsorted {
			slices.SortStableFunc(t.recs, func(a, b int32) int {
				return cmp.Compare(samples[a].Time, samples[b].Time)
			})
		}
		tl := Timeline{Thread: t.thread}
		// Every interval comes from one begin record.
		ivs := make([]Interval, 0, t.begins)
		stack = stack[:0]
		for _, k := range t.recs {
			s := &samples[k]
			e := collector.Event(s.Event)
			if !known(e) {
				continue // neither opens nor closes
			}
			switch {
			case opens[e]:
				stack = append(stack, Interval{Kind: e, Start: s.Time})
			case closes[e] >= 0:
				want := closes[e]
				// Pop to the matching open, tolerating mismatches by
				// discarding inner unbalanced opens.
				matched := false
				for len(stack) > 0 {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if top.Kind == want {
						top.End = s.Time
						ivs = append(ivs, top)
						matched = true
						break
					}
					tl.Unbalanced++
				}
				if !matched {
					tl.Unbalanced++
				}
			}
		}
		// Close dangling opens at the final sample time.
		for _, iv := range stack {
			iv.End = samples[t.recs[len(t.recs)-1]].Time
			ivs = append(ivs, iv)
			tl.Unbalanced++
		}
		if len(ivs) > 0 {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
			tl.Intervals = ivs
		}
		out = append(out, tl)
	}
	return out
}

// ActivityTimes sums interval durations per begin-event kind.
func ActivityTimes(tl Timeline) map[collector.Event]time.Duration {
	out := make(map[collector.Event]time.Duration)
	for _, iv := range tl.Intervals {
		out[iv.Kind] += iv.Duration()
	}
	return out
}

// BarrierImbalance summarizes barrier time across timelines: the
// maximum thread's implicit+explicit barrier time divided by the mean.
// 1.0 means perfectly even; values well above 1 mark load imbalance —
// the signal the mandelbrot example visualizes. Threads with no
// barrier time at all are excluded (e.g. a tool thread).
func BarrierImbalance(tls []Timeline) float64 {
	var times []time.Duration
	for _, tl := range tls {
		at := ActivityTimes(tl)
		t := at[collector.EventThrBeginIBar] + at[collector.EventThrBeginEBar]
		if t > 0 {
			times = append(times, t)
		}
	}
	if len(times) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, t := range times {
		sum += t
		if t > max {
			max = t
		}
	}
	mean := sum / time.Duration(len(times))
	if mean == 0 {
		return 0
	}
	return float64(max) / float64(mean)
}

// StealActivity summarizes one thread's work-stealing traffic: steals
// it performed as thief and steals it suffered as victim. Steal events
// are instantaneous (no begin/end pair); the thief is the sample's
// thread and the victim rides in the sample's State slot.
type StealActivity struct {
	Thread      int32
	ChunkStolen int // chunk steals performed by this thread
	TaskStolen  int // task steals performed by this thread
	ChunkLost   int // chunk steals suffered by this thread
	TaskLost    int // task steals suffered by this thread
}

// StealActivities tallies steal traffic per thread across the trace.
func StealActivities(samples []perf.Sample) []StealActivity {
	byThread := make(map[int32]*StealActivity)
	get := func(th int32) *StealActivity {
		a := byThread[th]
		if a == nil {
			a = &StealActivity{Thread: th}
			byThread[th] = a
		}
		return a
	}
	for i := range samples {
		s := &samples[i]
		e := collector.Event(s.Event)
		if e != collector.EventChunkSteal && e != collector.EventTaskSteal {
			continue
		}
		thief, victim := get(s.Thread), (*StealActivity)(nil)
		if s.State >= 0 {
			victim = get(s.State)
		}
		if e == collector.EventChunkSteal {
			thief.ChunkStolen++
			if victim != nil {
				victim.ChunkLost++
			}
		} else {
			thief.TaskStolen++
			if victim != nil {
				victim.TaskLost++
			}
		}
	}
	out := make([]StealActivity, 0, len(byThread))
	for _, a := range byThread {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Thread < out[j].Thread })
	return out
}

// WriteStealReport renders per-thread steal traffic: how much each
// thread rebalanced (stole) and how much was taken off it — the
// migration view that explains a skewed loop's flat timeline.
func WriteStealReport(w io.Writer, acts []StealActivity) {
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n",
		"thread", "chunk stolen", "chunk lost", "task stolen", "task lost")
	for _, a := range acts {
		fmt.Fprintf(w, "%-8d %12d %12d %12d %12d\n",
			a.Thread, a.ChunkStolen, a.ChunkLost, a.TaskStolen, a.TaskLost)
	}
}

// GovernorStep is one overhead-governor ladder transition decoded
// from the trace: at Time the measurement moved From one degradation
// level To another, for Reason. A trace with any step past LevelFull
// is not full fidelity — whole event classes were shed, or nothing
// was stored at all — and every consumer of the trace should surface
// that. Traces written before the ladder lost its reduced-sampler and
// no-stacks rungs hold levels 1 and 2, which decode and render as
// those names.
type GovernorStep struct {
	Time   int64
	From   degrade.Level
	To     degrade.Level
	Reason degrade.Reason
}

// GovernorSteps decodes the governor's transition history from trace
// samples (the collector emits one EventGovernor sample per ladder
// move: the new level in State, the old level in Region, the reason in
// Site). The result is ordered by time.
func GovernorSteps(samples []perf.Sample) []GovernorStep {
	var out []GovernorStep
	for i := range samples {
		s := &samples[i]
		if collector.Event(s.Event) != collector.EventGovernor {
			continue
		}
		out = append(out, GovernorStep{
			Time:   s.Time,
			From:   degrade.Level(s.Region),
			To:     degrade.Level(s.State),
			Reason: degrade.Reason(s.Site),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// FinalGovernorLevel returns the level the governor ended the trace at
// (LevelFull when the trace holds no governor events).
func FinalGovernorLevel(steps []GovernorStep) degrade.Level {
	if len(steps) == 0 {
		return degrade.LevelFull
	}
	return steps[len(steps)-1].To
}

// WriteGovernorReport renders the governor's step history, with times
// relative to the first step.
func WriteGovernorReport(w io.Writer, steps []GovernorStep) {
	if len(steps) == 0 {
		return
	}
	t0 := steps[0].Time
	for _, st := range steps {
		fmt.Fprintf(w, "  %+12v  %s -> %s (%s)\n",
			time.Duration(st.Time-t0), st.From, st.To, st.Reason)
	}
}

// Report renders timelines as a per-thread activity table.
func Report(w io.Writer, tls []Timeline) {
	fmt.Fprintf(w, "%-8s %-28s %10s %14s\n", "thread", "activity", "intervals", "total")
	for _, tl := range tls {
		at := ActivityTimes(tl)
		kinds := make([]collector.Event, 0, len(at))
		for k := range at {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			n := 0
			for _, iv := range tl.Intervals {
				if iv.Kind == k {
					n++
				}
			}
			fmt.Fprintf(w, "%-8d %-28s %10d %14v\n", tl.Thread, k, n, at[k])
		}
		if tl.Unbalanced > 0 {
			fmt.Fprintf(w, "%-8d (%d unbalanced events)\n", tl.Thread, tl.Unbalanced)
		}
	}
}
