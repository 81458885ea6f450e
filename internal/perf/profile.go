package perf

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// StateHistogram counts asynchronous state-sampler observations per
// thread and state. Indexing is [thread][state]; the profile's Threads
// and States bounds come from the caller.
type StateHistogram struct {
	Counts map[int32]map[int32]uint64
}

// NewStateHistogram returns an empty histogram.
func NewStateHistogram() *StateHistogram {
	return &StateHistogram{Counts: make(map[int32]map[int32]uint64)}
}

// Observe adds one observation of thread in state.
func (h *StateHistogram) Observe(thread, state int32) {
	m := h.Counts[thread]
	if m == nil {
		m = make(map[int32]uint64)
		h.Counts[thread] = m
	}
	m[state]++
}

// Total returns all observations of a thread.
func (h *StateHistogram) Total(thread int32) uint64 {
	var t uint64
	for _, c := range h.Counts[thread] {
		t += c
	}
	return t
}

// Fraction returns the share of thread's observations spent in state,
// or 0 when the thread was never observed.
func (h *StateHistogram) Fraction(thread, state int32) float64 {
	t := h.Total(thread)
	if t == 0 {
		return 0
	}
	return float64(h.Counts[thread][state]) / float64(t)
}

// Merge adds other's counts into h.
func (h *StateHistogram) Merge(other *StateHistogram) {
	for th, m := range other.Counts {
		for st, c := range m {
			dst := h.Counts[th]
			if dst == nil {
				dst = make(map[int32]uint64)
				h.Counts[th] = dst
			}
			dst[st] += c
		}
	}
}

// ForkJoinDurations pairs fork and join samples and calls visit with
// each completed invocation's join sample and duration, in join order.
//
// Pairing is LIFO per forking thread: each thread keeps a stack of
// pending fork times, a join pops its own thread's most recent fork.
// That matches nesting semantics — an inner region forked after an
// outer one must join before it — and keeps concurrent regions forked
// by different threads (nested parallelism) from stealing each other's
// fork times. A join with no pending fork on its thread (truncated
// trace prefix) is ignored; forks never joined (truncated suffix) are
// dropped.
func ForkJoinDurations(samples []Sample, forkEvent, joinEvent int32, visit func(join *Sample, d time.Duration)) {
	pending := make(map[int32][]int64)
	for i := range samples {
		s := &samples[i]
		switch s.Event {
		case forkEvent:
			pending[s.Thread] = append(pending[s.Thread], s.Time)
		case joinEvent:
			stack := pending[s.Thread]
			if len(stack) == 0 {
				continue
			}
			fork := stack[len(stack)-1]
			pending[s.Thread] = stack[:len(stack)-1]
			visit(s, time.Duration(s.Time-fork))
		}
	}
}

// RegionSiteStats aggregates all invocations of one static parallel
// region (identified by its site PC) from fork/join sample pairs.
type RegionSiteStats struct {
	Site      uint64
	Calls     int
	TotalTime time.Duration
	MinTime   time.Duration
	MaxTime   time.Duration
}

// RegionProfileBySite computes per-region statistics from fork/join
// sample pairs: the duration of each invocation is the join sample's
// counter minus its matching fork sample's counter (paired per thread
// with a stack, so nested and interleaved regions attribute
// correctly), aggregated per static region — one row per parallel
// region of the source program, with its invocation count. Region IDs
// are per invocation, so they are not what a profile groups by.
// forkEvent and joinEvent identify the two event codes in the trace.
func RegionProfileBySite(samples []Sample, forkEvent, joinEvent int32) []RegionSiteStats {
	bySite := make(RegionSiteSet)
	ForkJoinDurations(samples, forkEvent, joinEvent, func(s *Sample, d time.Duration) {
		st := bySite[s.Site]
		if st == nil {
			st = &RegionSiteStats{Site: s.Site, MinTime: d, MaxTime: d}
			bySite[s.Site] = st
		}
		st.Calls++
		st.TotalTime += d
		if d < st.MinTime {
			st.MinTime = d
		}
		if d > st.MaxTime {
			st.MaxTime = d
		}
	})
	return bySite.Sorted()
}

// RegionSiteSet accumulates per-site statistics across sample streams
// that must each be paired fork→join on their own (one buffer or one
// trace file is one descriptor's time-ordered stream; concatenating
// two before pairing could mismatch) — the merged view both obs
// planes serve at /profile.
type RegionSiteSet map[uint64]*RegionSiteStats

// Merge folds one stream's per-site statistics into the set.
func (m RegionSiteSet) Merge(stats []RegionSiteStats) {
	for _, st := range stats {
		agg := m[st.Site]
		if agg == nil {
			c := st
			m[st.Site] = &c
			continue
		}
		agg.Calls += st.Calls
		agg.TotalTime += st.TotalTime
		agg.MinTime = min(agg.MinTime, st.MinTime)
		agg.MaxTime = max(agg.MaxTime, st.MaxTime)
	}
}

// Sorted returns the set's rows by total time, largest first, ties by
// site so the order is reproducible.
func (m RegionSiteSet) Sorted() []RegionSiteStats {
	out := make([]RegionSiteStats, 0, len(m))
	for _, st := range m {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalTime != out[j].TotalTime {
			return out[i].TotalTime > out[j].TotalTime
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// WriteRegionSiteTable renders per-site region statistics; resolve
// maps a site PC to a label (pass nil for hex PCs).
func WriteRegionSiteTable(w io.Writer, stats []RegionSiteStats, resolve func(uint64) string) {
	fmt.Fprintf(w, "%-40s %8s %14s %14s\n", "region site", "calls", "total", "mean")
	for _, st := range stats {
		label := fmt.Sprintf("%#x", st.Site)
		if resolve != nil {
			label = resolve(st.Site)
		}
		mean := time.Duration(0)
		if st.Calls > 0 {
			mean = st.TotalTime / time.Duration(st.Calls)
		}
		fmt.Fprintf(w, "%-40s %8d %14v %14v\n", label, st.Calls, st.TotalTime, mean)
	}
}

// SiteProfile attributes interned join-time callstacks to user-model
// leaf frames: the count of joins whose reconstructed user stack ends
// at each source location. This is the offline reconstruction step
// that maps events back to the user's source code.
type SiteProfile struct {
	Leaf  Frame
	Count int
}

// SiteProfiles counts, for every stack in the buffer, the samples that
// reference it (a call path is stored once per chunk, however many
// joins took it), resolves each referenced stack once, strips it to
// the user model with s, and tallies the counts by leaf frame.
func SiteProfiles(b *TraceBuffer, s *Stripper) []SiteProfile {
	type key struct {
		fn   string
		file string
		line int
	}
	st := b.enter() // one bracket: the samples and the stacks of one snapshot
	defer b.exit()
	views, _ := snapshot(st)
	refs := make(map[int32]int)
	for _, v := range views {
		for i := range v.c.samples[:v.n] {
			if id := v.c.samples[i].StackID; id != NoStack {
				refs[id]++
			}
		}
	}
	tally := make(map[key]*SiteProfile)
	for _, v := range views {
		for i, pcs := range v.stacks() {
			n := refs[v.c.stackBase+int32(i)]
			if n == 0 {
				continue
			}
			leaf, ok := s.Leaf(Resolve(pcs))
			if !ok {
				continue
			}
			k := key{leaf.Func, leaf.File, leaf.Line}
			sp := tally[k]
			if sp == nil {
				sp = &SiteProfile{Leaf: leaf}
				tally[k] = sp
			}
			sp.Count += n
		}
	}
	out := make([]SiteProfile, 0, len(tally))
	for _, sp := range tally {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Leaf.Func < out[j].Leaf.Func
	})
	return out
}
