package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"goomp/internal/collector"
	"goomp/internal/perf"
)

// endToBegin is the inverse of pairs.
var endToBegin = func() map[collector.Event]collector.Event {
	m := make(map[collector.Event]collector.Event, len(pairs))
	for b, e := range pairs {
		m[e] = b
	}
	return m
}()

// referenceTimelines is Timelines as it was before it counted first:
// whole samples regrouped per thread through growing appends, every
// thread stably sorted whether it needed it or not, events paired by
// map lookup. It stays as the oracle the rebuilt Timelines must agree
// with exactly, down to the order the final (unstable) sort leaves
// equal-start intervals in.
func referenceTimelines(samples []perf.Sample) []Timeline {
	byThread := make(map[int32][]perf.Sample)
	for _, s := range samples {
		if s.Event < 0 {
			continue
		}
		if collector.Event(s.Event) == collector.EventGovernor {
			continue
		}
		byThread[s.Thread] = append(byThread[s.Thread], s)
	}
	threads := make([]int32, 0, len(byThread))
	for th := range byThread {
		threads = append(threads, th)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })

	out := make([]Timeline, 0, len(threads))
	for _, th := range threads {
		ss := byThread[th]
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].Time < ss[j].Time })
		tl := Timeline{Thread: th}
		var stack []Interval
		var last int64
		for _, s := range ss {
			last = s.Time
			e := collector.Event(s.Event)
			_, begin := pairs[e]
			want, end := endToBegin[e]
			switch {
			case begin:
				stack = append(stack, Interval{Kind: e, Start: s.Time})
			case end:
				matched := false
				for len(stack) > 0 {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if top.Kind == want {
						top.End = s.Time
						tl.Intervals = append(tl.Intervals, top)
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
		for _, iv := range stack {
			iv.End = last
			tl.Intervals = append(tl.Intervals, iv)
			tl.Unbalanced++
		}
		sort.Slice(tl.Intervals, func(i, j int) bool {
			return tl.Intervals[i].Start < tl.Intervals[j].Start
		})
		out = append(out, tl)
	}
	return out
}

// randomTrace draws n samples that exercise every way Timelines'
// input can be awkward: begin and end events drawn independently (so
// nesting is wrong and opens dangle), fork/join and steal events that
// are neither, sampler records (Event -1), governor records on their
// pseudo-thread and on real ones, events past either end of the
// collector's range (a decoded trace may carry any int32), thread
// numbers that are not dense, and timestamps from a range small enough
// to collide. shuffle 0
// leaves each thread's samples in time order, as a trace file has
// them; 1 swaps a few neighbours; 2 orders nothing.
func randomTrace(rng *rand.Rand, n, shuffle int) []perf.Sample {
	begins := make([]collector.Event, 0, len(pairs))
	for b := range pairs {
		begins = append(begins, b)
	}
	sort.Slice(begins, func(i, j int) bool { return begins[i] < begins[j] })
	threads := []int32{0, 1, 2, 7, -1, 1 << 20}
	out := make([]perf.Sample, n)
	span := int64(n/3 + 1)
	for i := range out {
		s := perf.Sample{Thread: threads[rng.Intn(len(threads))], StackID: perf.NoStack}
		switch shuffle {
		case 2:
			s.Time = rng.Int63n(span)
		default:
			s.Time = int64(i) / 3 // runs of equal timestamps
		}
		b := begins[rng.Intn(len(begins))]
		switch k := rng.Intn(21); {
		case k < 8:
			s.Event = int32(b)
		case k < 16:
			s.Event = int32(pairs[b])
		case k < 17:
			s.Event = -1
		case k < 18:
			s.Event = int32(collector.EventGovernor)
		case k < 19:
			s.Event = int32(collector.EventFork)
		case k < 20:
			s.Event = int32(collector.EventChunkSteal)
		default:
			s.Event = outOfRange[rng.Intn(len(outOfRange))]
		}
		out[i] = s
	}
	if shuffle == 1 {
		for k := 0; k < n/10; k++ {
			i := rng.Intn(n - 1)
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	return out
}

// outOfRange are events no collector emits but a decoded trace can
// carry: they index no pair table. Wrapped into the table's range,
// NumEvents+3 would read as an end and NumEvents+EventThrBeginIBar as
// a begin.
var outOfRange = []int32{-7, collector.NumEvents, collector.NumEvents + 3,
	collector.NumEvents + int32(collector.EventThrBeginIBar), 1 << 30}

// TestPairTables: the tables answer what the pairs map does, for
// every event and for events outside the collector's range.
func TestPairTables(t *testing.T) {
	events := append([]int32{-1, math.MinInt32, math.MaxInt32}, outOfRange...)
	for e := int32(0); e < collector.NumEvents; e++ {
		events = append(events, e)
	}
	for _, e := range events {
		ev := collector.Event(e)
		_, begin := pairs[ev]
		_, end := endToBegin[ev]
		if IsBegin(ev) != begin || IsEnd(ev) != end {
			t.Errorf("event %d: IsBegin %v, IsEnd %v; the pairs say %v, %v", e, IsBegin(ev), IsEnd(ev), begin, end)
		}
	}
}

func TestTimelinesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for shuffle := 0; shuffle <= 2; shuffle++ {
			rng := rand.New(rand.NewSource(seed))
			// Past a dozen intervals per thread sort.Slice stops being
			// an insertion sort, so the sizes straddle that.
			samples := randomTrace(rng, []int{0, 1, 30, 400, 3000}[seed%5], shuffle)
			input := make([]perf.Sample, len(samples))
			copy(input, samples)
			got, want := Timelines(samples), referenceTimelines(input)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, shuffle %d, %d samples: Timelines differs from the reference\n got %+v\nwant %+v",
					seed, shuffle, len(samples), got, want)
			}
			if !reflect.DeepEqual(samples, input) {
				t.Fatalf("seed %d, shuffle %d: Timelines modified its input", seed, shuffle)
			}
		}
	}
}

// TestAllocTimelines: Timelines allocates what it returns and a 4-byte
// sample index per sample it reads, once, at final size. On the
// benchmark's event mix — fork, join, and an implicit-barrier pair per
// thread and region — that is 13.7 B/sample (a 16-byte copied record
// took 26, regrouping whole samples through growing appends 300), and
// the ceiling is a quarter above.
func TestAllocTimelines(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const threads, regions, ceiling = 4, 20000, 17 // bytes per sample
	var samples []perf.Sample
	for th := int32(0); th < threads; th++ {
		for r := int64(0); r < regions; r++ {
			if th == 0 {
				samples = append(samples, sample(r*100, th, collector.EventFork))
			}
			samples = append(samples,
				sample(r*100+10+int64(th), th, collector.EventThrBeginIBar),
				sample(r*100+50, th, collector.EventThrEndIBar))
			if th == 0 {
				samples = append(samples, sample(r*100+60, th, collector.EventJoin))
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tls := Timelines(samples)
	runtime.ReadMemStats(&after)
	if len(tls) != threads || len(tls[0].Intervals) != regions {
		t.Fatalf("%d timelines, %d intervals on the first", len(tls), len(tls[0].Intervals))
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(samples))
	if per > ceiling {
		t.Fatalf("Timelines allocates %.1f B/sample, ceiling %d", per, ceiling)
	}
}

// reportTrace is a trace shaped like the one a report reads: per
// parallel region the master forks, every thread enters the implicit
// barrier at its own time and leaves it after the last arrival, and
// the master joins. The samples come thread by thread, as ompreport
// concatenates the per-thread files.
func reportTrace(threads, regions int) []perf.Sample {
	rng := rand.New(rand.NewSource(1))
	per := make([][]perf.Sample, threads)
	arrive := make([]int64, threads)
	now := int64(1000)
	for r := 0; r < regions; r++ {
		per[0] = append(per[0], sample(now, 0, collector.EventFork))
		var last int64
		for th := range arrive {
			arrive[th] = now + 200 + rng.Int63n(4000)
			last = max(last, arrive[th])
		}
		for th := range arrive {
			per[th] = append(per[th],
				sample(arrive[th], int32(th), collector.EventThrBeginIBar),
				sample(last+int64(20*th), int32(th), collector.EventThrEndIBar))
		}
		now = last + int64(20*threads) + 50
		per[0] = append(per[0], sample(now, 0, collector.EventJoin))
		now += 100 + rng.Int63n(500)
	}
	var out []perf.Sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// BenchmarkTimelines reconstructs the timelines of a report-shaped
// trace of 300k samples and reports the cost per sample.
func BenchmarkTimelines(b *testing.B) {
	samples := reportTrace(4, 30000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tls := Timelines(samples); len(tls) != 4 {
			b.Fatalf("%d timelines, want 4", len(tls))
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(len(samples))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/sample")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/sample")
}
