// Package epcc reimplements the EPCC OpenMP synchronization
// microbenchmark methodology on the goomp runtime: for each directive,
// the suite times an outer loop of repetitions of a calibrated delay
// wrapped in the construct, subtracts the reference time of the same
// loop without the construct, and reports the per-repetition overhead.
//
// The paper's Figure 4 uses these benchmarks to measure the percentage
// increase in directive overheads when the collector API is enabled;
// the Compare harness in this package regenerates that experiment.
package epcc

import (
	"fmt"
	"math"
	"time"

	"goomp/internal/omp"
	"goomp/internal/perf"
)

// Suite holds the benchmark parameters, following the original
// syncbench knobs.
type Suite struct {
	RT *omp.RT
	// InnerReps is how many times the construct executes per timing.
	InnerReps int
	// OuterReps is how many timings are taken per directive; the
	// statistics are computed over these.
	OuterReps int
	// DelayLength is the iteration count of the calibrated delay loop
	// executed inside each construct.
	DelayLength int
}

// NewSuite returns a suite with EPCC-ish defaults scaled for this
// substrate.
func NewSuite(rt *omp.RT) *Suite {
	return &Suite{RT: rt, InnerReps: 128, OuterReps: 10, DelayLength: 64}
}

// Delay is the EPCC delay function: a loop of floating-point work the
// compiler cannot remove because the result is returned and consumed.
func Delay(n int) float64 {
	a := 0.0
	for i := 0; i < n; i++ {
		a += float64(i&7) * 0.5
	}
	return a
}

// Stats summarizes the outer repetitions of one directive timing.
type Stats struct {
	Mean, SD, Min, Max time.Duration
	N                  int
}

func computeStats(xs []time.Duration) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	st := Stats{Min: xs[0], Max: xs[0], N: len(xs)}
	var sum, sum2 float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sum2 += f * f
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	mean := sum / float64(len(xs))
	st.Mean = time.Duration(mean)
	if len(xs) > 1 {
		variance := (sum2 - float64(len(xs))*mean*mean) / float64(len(xs)-1)
		if variance > 0 {
			st.SD = time.Duration(math.Sqrt(variance))
		}
	}
	return st
}

// Result is the measurement of one directive.
type Result struct {
	Directive string
	Threads   int
	// Time is the statistics of one inner loop (InnerReps constructs).
	Time Stats
	// Reference is the statistics of the construct-free inner loop.
	Reference Stats
	// Overhead is the mean per-repetition overhead:
	// (Time.Mean - Reference.Mean) / InnerReps, floored at zero.
	Overhead time.Duration
}

// Directive names one microbenchmark and how to run a timed inner loop
// of it.
type Directive struct {
	Name string
	// Run executes InnerReps constructs and returns when they are
	// complete. It is timed by Measure.
	Run func(s *Suite)
}

// Directives returns the syncbench directive set: the paper's Figure 4
// covers parallel, for, parallel-for, barrier, single, critical,
// lock/unlock, ordered, atomic, reduction and master.
func Directives() []Directive {
	return []Directive{
		{"PARALLEL", runParallel},
		{"FOR", runFor},
		{"PARALLEL FOR", runParallelFor},
		{"BARRIER", runBarrier},
		{"SINGLE", runSingle},
		{"CRITICAL", runCritical},
		{"LOCK/UNLOCK", runLock},
		{"ORDERED", runOrdered},
		{"ATOMIC", runAtomic},
		{"REDUCTION", runReduction},
		{"MASTER", runMaster},
	}
}

var sink omp.AtomicFloat64

// reference runs the construct-free inner loop: each thread executes
// InnerReps delays, matching the per-thread work of the construct
// loops.
func (s *Suite) reference() {
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		a := 0.0
		for i := 0; i < s.InnerReps; i++ {
			a += Delay(s.DelayLength)
		}
		tc.AtomicAddFloat64(&sink, a)
	})
}

func runParallel(s *Suite) {
	for i := 0; i < s.InnerReps; i++ {
		s.RT.Parallel(func(tc *omp.ThreadCtx) {
			tc.AtomicAddFloat64(&sink, Delay(s.DelayLength))
		})
	}
}

func runFor(s *Suite) {
	n := s.RT.Config().NumThreads
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		a := 0.0
		for i := 0; i < s.InnerReps; i++ {
			tc.For(n, func(int) { a += Delay(s.DelayLength) })
		}
		tc.AtomicAddFloat64(&sink, a)
	})
}

func runParallelFor(s *Suite) {
	n := s.RT.Config().NumThreads
	for i := 0; i < s.InnerReps; i++ {
		s.RT.ParallelFor(n, func(tc *omp.ThreadCtx, _ int) {
			tc.AtomicAddFloat64(&sink, Delay(s.DelayLength))
		})
	}
}

func runBarrier(s *Suite) {
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		a := 0.0
		for i := 0; i < s.InnerReps; i++ {
			a += Delay(s.DelayLength)
			tc.Barrier()
		}
		tc.AtomicAddFloat64(&sink, a)
	})
}

func runSingle(s *Suite) {
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < s.InnerReps; i++ {
			tc.Single(func() {
				sink.Store(sink.Load() + Delay(s.DelayLength))
			})
		}
	})
}

func runCritical(s *Suite) {
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < s.InnerReps; i++ {
			tc.Critical("epcc", func() {
				sink.Store(sink.Load() + Delay(s.DelayLength))
			})
		}
	})
}

func runLock(s *Suite) {
	var l omp.Lock
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < s.InnerReps; i++ {
			l.Acquire(tc)
			sink.Store(sink.Load() + Delay(s.DelayLength))
			l.Release()
		}
	})
}

func runOrdered(s *Suite) {
	n := s.RT.Config().NumThreads
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		// One ordered loop of InnerReps iterations across the team;
		// each iteration's ordered section runs the delay.
		for rep := 0; rep < s.InnerReps/n+1; rep++ {
			tc.ForOrdered(n, func(i int, ord *omp.Ordered) {
				ord.Do(func() {
					sink.Store(sink.Load() + Delay(s.DelayLength))
				})
			})
		}
	})
}

func runAtomic(s *Suite) {
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < s.InnerReps; i++ {
			tc.AtomicAddFloat64(&sink, 1.0)
		}
	})
}

func runReduction(s *Suite) {
	var total float64
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < s.InnerReps; i++ {
			tc.ReduceFloat64(&total, Delay(s.DelayLength))
		}
	})
	sink.Store(total)
}

func runMaster(s *Suite) {
	s.RT.Parallel(func(tc *omp.ThreadCtx) {
		for i := 0; i < s.InnerReps; i++ {
			tc.Master(func() {
				sink.Store(sink.Load() + Delay(s.DelayLength))
			})
		}
	})
}

// Measure times directive d over OuterReps repetitions and computes
// its overhead against the reference loop.
func (s *Suite) Measure(d Directive) Result {
	times := make([]time.Duration, 0, s.OuterReps)
	refs := make([]time.Duration, 0, s.OuterReps)
	// Warm both paths once so pool creation is off the clock.
	s.reference()
	d.Run(s)
	for i := 0; i < s.OuterReps; i++ {
		refs = append(refs, perf.Time(func() { s.reference() }))
		times = append(times, perf.Time(func() { d.Run(s) }))
	}
	res := Result{
		Directive: d.Name,
		Threads:   s.RT.Config().NumThreads,
		Time:      computeStats(times),
		Reference: computeStats(refs),
	}
	over := res.Time.Mean - res.Reference.Mean
	if over < 0 {
		over = 0
	}
	res.Overhead = over / time.Duration(s.InnerReps)
	return res
}

// MeasureAll measures every directive in suite order.
func (s *Suite) MeasureAll() []Result {
	ds := Directives()
	out := make([]Result, 0, len(ds))
	for _, d := range ds {
		out = append(out, s.Measure(d))
	}
	return out
}

// Lookup returns the directive with the given name.
func Lookup(name string) (Directive, error) {
	for _, d := range Directives() {
		if d.Name == name {
			return d, nil
		}
	}
	return Directive{}, fmt.Errorf("epcc: unknown directive %q", name)
}
