// Benchmarks regenerating the paper's evaluation, one family per table
// and figure (run with `go test -bench=. -benchmem`):
//
//	BenchmarkFigure4EPCC          — EPCC directives, ORA off vs on
//	BenchmarkFigure5NPB           — NPB3.2-OMP kernels, ORA off vs on
//	BenchmarkTable1RegionCounts   — region/call counts as metrics
//	BenchmarkFigure6MZ            — multi-zone hybrids, ORA off vs on
//	BenchmarkTable2MZRegionCounts — per-process call counts as metrics
//	BenchmarkDecomposition        — §V-B callback vs measurement split
//	BenchmarkAblation*            — design-choice microbenchmarks
package goomp_test

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/epcc"
	"goomp/internal/experiments"
	"goomp/internal/mz"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

// benchClass keeps the harness fast enough for -bench=. while
// preserving every structural property; the cmd/ drivers run bigger
// classes.
const benchClass = npb.ClassS

// --- Figure 4: EPCC directive overheads, ORA off vs on ---

func BenchmarkFigure4EPCC(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		for _, d := range epcc.Directives() {
			d := d
			b.Run(fmt.Sprintf("%s/%s", mode, sanitize(d.Name)), func(b *testing.B) {
				rt := omp.New(omp.Config{NumThreads: 4})
				defer rt.Close()
				if mode == "on" {
					tl, err := tool.AttachRuntime(rt, tool.FullMeasurement())
					if err != nil {
						b.Fatal(err)
					}
					defer tl.Detach()
				}
				s := epcc.NewSuite(rt)
				s.InnerReps = 32
				s.DelayLength = 32
				d.Run(s) // warm the pool
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Run(s)
				}
			})
		}
	}
}

// --- Figure 5: NPB-OMP overheads, ORA off vs on ---

func BenchmarkFigure5NPB(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		for _, bench := range npb.Suite() {
			bench := bench
			b.Run(fmt.Sprintf("%s/%s", mode, sanitize(bench.Name)), func(b *testing.B) {
				rt := omp.New(omp.Config{NumThreads: 4})
				defer rt.Close()
				if mode == "on" {
					tl, err := tool.AttachRuntime(rt, tool.FullMeasurement())
					if err != nil {
						b.Fatal(err)
					}
					defer tl.Detach()
				}
				var calls uint64
				for i := 0; i < b.N; i++ {
					res := bench.Run(rt, benchClass)
					if !res.Verified {
						b.Fatalf("%s failed verification", bench.Name)
					}
					calls = res.RegionCalls
				}
				b.ReportMetric(float64(calls), "regioncalls")
			})
		}
	}
}

// --- Table I: region counts reported as benchmark metrics ---

func BenchmarkTable1RegionCounts(b *testing.B) {
	for _, bench := range npb.Suite() {
		bench := bench
		b.Run(sanitize(bench.Name), func(b *testing.B) {
			rt := omp.New(omp.Config{NumThreads: 2})
			defer rt.Close()
			var res npb.Result
			for i := 0; i < b.N; i++ {
				res = bench.Run(rt, benchClass)
			}
			paper := experiments.PaperTableI[bench.Name]
			b.ReportMetric(float64(res.Regions), "regions")
			b.ReportMetric(float64(res.RegionCalls), "calls")
			b.ReportMetric(float64(paper.Calls), "papercalls")
		})
	}
}

// --- Figure 6: multi-zone overheads, ORA off vs on ---

func BenchmarkFigure6MZ(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		for _, spec := range mz.Benchmarks() {
			spec := spec
			for _, d := range experiments.Decompositions {
				if d.Procs > spec.GX*spec.GY {
					continue
				}
				d := d
				name := fmt.Sprintf("%s/%s/%dx%d", mode, sanitize(spec.Name), d.Procs, d.Threads)
				b.Run(name, func(b *testing.B) {
					params := mz.Params{
						Procs: d.Procs, Threads: d.Threads, Class: benchClass,
					}
					if mode == "on" {
						params.WithTool = true
						params.ToolOptions = tool.FullMeasurement()
					}
					var calls uint64
					for i := 0; i < b.N; i++ {
						res := mz.Run(spec, params)
						if !res.Verified {
							b.Fatalf("%s failed verification", spec.Name)
						}
						calls = res.RegionCallsRank0()
					}
					b.ReportMetric(float64(calls), "rank0calls")
				})
			}
		}
	}
}

// --- Table II: per-process region calls as benchmark metrics ---

func BenchmarkTable2MZRegionCounts(b *testing.B) {
	for _, spec := range mz.Benchmarks() {
		spec := spec
		for _, d := range experiments.Decompositions {
			if d.Procs > spec.GX*spec.GY {
				continue
			}
			d := d
			cfg := fmt.Sprintf("%dx%d", d.Procs, d.Threads)
			b.Run(fmt.Sprintf("%s/%s", sanitize(spec.Name), cfg), func(b *testing.B) {
				var calls uint64
				for i := 0; i < b.N; i++ {
					res := mz.Run(spec, mz.Params{Procs: d.Procs, Threads: d.Threads, Class: benchClass})
					calls = res.RegionCallsRank0()
				}
				b.ReportMetric(float64(calls), "rank0calls")
				b.ReportMetric(float64(experiments.PaperTableII[spec.Name][cfg]), "papercalls")
			})
		}
	}
}

// --- §V-B: overhead decomposition ---

func BenchmarkDecomposition(b *testing.B) {
	modes := []struct {
		name string
		opts *tool.Options
	}{
		{"off", nil},
		{"callbacks", func() *tool.Options { o := tool.CallbacksOnly(); return &o }()},
		{"full", func() *tool.Options { o := tool.FullMeasurement(); return &o }()},
	}
	for _, m := range modes {
		m := m
		b.Run("LU-HP/"+m.name, func(b *testing.B) {
			rt := omp.New(omp.Config{NumThreads: 4})
			defer rt.Close()
			if m.opts != nil {
				tl, err := tool.AttachRuntime(rt, *m.opts)
				if err != nil {
					b.Fatal(err)
				}
				defer tl.Detach()
			}
			for i := 0; i < b.N; i++ {
				if res := npb.RunLUHP(rt, benchClass); !res.Verified {
					b.Fatal("LU-HP failed verification")
				}
			}
		})
		b.Run("SP-MZ/"+m.name, func(b *testing.B) {
			spec, err := mz.ByName("SP-MZ")
			if err != nil {
				b.Fatal(err)
			}
			params := mz.Params{Procs: 4, Threads: 1, Class: benchClass}
			if m.opts != nil {
				params.WithTool = true
				params.ToolOptions = *m.opts
			}
			for i := 0; i < b.N; i++ {
				if res := mz.Run(spec, params); !res.Verified {
					b.Fatal("SP-MZ failed verification")
				}
			}
		})
	}
}

// --- Ablations: the design decisions DESIGN.md calls out ---

// BenchmarkAblationEventDispatch measures the event fast path: an
// unregistered event must cost one atomic load (the check-ordering
// argument of §IV-C); a registered one adds the callback invocation;
// paused sits in between.
func BenchmarkAblationEventDispatch(b *testing.B) {
	setup := func(register, paused bool) (*collector.Collector, *collector.ThreadInfo) {
		c := collector.New()
		q := c.NewQueue()
		collector.Control(q, collector.ReqStart)
		if register {
			h := c.NewCallbackHandle(func(collector.Event, *collector.ThreadInfo) {})
			collector.Register(q, collector.EventFork, h)
		}
		if paused {
			collector.Control(q, collector.ReqPause)
		}
		return c, collector.NewThreadInfo(0)
	}
	b.Run("unregistered", func(b *testing.B) {
		c, ti := setup(false, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Event(ti, collector.EventFork)
		}
	})
	b.Run("registered", func(b *testing.B) {
		c, ti := setup(true, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Event(ti, collector.EventFork)
		}
	})
	b.Run("paused", func(b *testing.B) {
		c, ti := setup(true, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Event(ti, collector.EventFork)
		}
	})
}

// BenchmarkAblationSetState measures the always-on state store the
// paper argues is cheap enough to leave unconditional.
func BenchmarkAblationSetState(b *testing.B) {
	ti := collector.NewThreadInfo(0)
	for i := 0; i < b.N; i++ {
		ti.SetState(collector.StateWorking)
	}
}

// BenchmarkAblationQueue compares per-tool-thread request queues with
// the rejected single global queue under concurrent state queries.
func BenchmarkAblationQueue(b *testing.B) {
	run := func(b *testing.B, global bool) {
		var c *collector.Collector
		if global {
			c = collector.New(collector.WithGlobalQueue())
		} else {
			c = collector.New()
		}
		c.BindThread(collector.NewThreadInfo(0))
		q := c.NewQueue()
		collector.Control(q, collector.ReqStart)
		b.RunParallel(func(pb *testing.PB) {
			myq := c.NewQueue()
			for pb.Next() {
				collector.QueryState(myq, 0)
			}
		})
	}
	b.Run("perThread", func(b *testing.B) { run(b, false) })
	b.Run("global", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationBarrier compares the team barrier under the
// passive and active wait policies: the same spin-then-park barrier
// at spin budgets 256 and 4096.
func BenchmarkAblationBarrier(b *testing.B) {
	for _, spin := range []bool{false, true} {
		name := "passive"
		if spin {
			name = "active"
		}
		b.Run(name, func(b *testing.B) {
			rt := omp.New(omp.Config{NumThreads: 4, SpinBarrier: spin})
			defer rt.Close()
			rt.Parallel(func(tc *omp.ThreadCtx) {}) // warm pool
			b.ResetTimer()
			rt.Parallel(func(tc *omp.ThreadCtx) {
				for i := 0; i < b.N; i++ {
					tc.Barrier()
				}
			})
		})
	}
}

// BenchmarkAblationForkJoin measures bare region fork/join cost by
// team size.
func BenchmarkAblationForkJoin(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			rt := omp.New(omp.Config{NumThreads: threads})
			defer rt.Close()
			rt.Parallel(func(tc *omp.ThreadCtx) {})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Parallel(func(tc *omp.ThreadCtx) {})
			}
		})
	}
}

// BenchmarkAblationSchedule compares worksharing schedulers on a
// uniform loop.
func BenchmarkAblationSchedule(b *testing.B) {
	kinds := []struct {
		name  string
		sched omp.Schedule
		chunk int
	}{
		{"static", omp.ScheduleStatic, 0},
		{"static-chunk8", omp.ScheduleStatic, 8},
		{"dynamic-chunk8", omp.ScheduleDynamic, 8},
		{"guided-chunk8", omp.ScheduleGuided, 8},
	}
	const n = 4096
	for _, k := range kinds {
		k := k
		b.Run(k.name, func(b *testing.B) {
			rt := omp.New(omp.Config{NumThreads: 4})
			defer rt.Close()
			sink := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Parallel(func(tc *omp.ThreadCtx) {
					local := 0.0
					tc.ForSchedNoWait(n, k.sched, k.chunk, func(lo, hi int) {
						for j := lo; j < hi; j++ {
							local += float64(j & 3)
						}
					})
					tc.ReduceFloat64(&sink, local)
				})
			}
		})
	}
}

// BenchmarkAblationSelective measures the §VI selective-collection
// strategy on the motivating workload: LU-HP under full measurement
// with and without a per-region-site sample budget. The throttled run
// keeps exact event counts while skipping the dominant
// measurement/storage work for over-budget regions.
func BenchmarkAblationSelective(b *testing.B) {
	for _, budget := range []int{0, 100} {
		budget := budget
		name := "unlimited"
		if budget > 0 {
			name = fmt.Sprintf("budget-%d", budget)
		}
		b.Run(name, func(b *testing.B) {
			rt := omp.New(omp.Config{NumThreads: 4})
			defer rt.Close()
			opts := tool.FullMeasurement()
			opts.MaxSamplesPerSite = budget
			tl, err := tool.AttachRuntime(rt, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer tl.Detach()
			for i := 0; i < b.N; i++ {
				if res := npb.RunLUHP(rt, benchClass); !res.Verified {
					b.Fatal("LU-HP failed verification")
				}
			}
			rep := tl.Report()
			b.ReportMetric(float64(rep.Samples), "samples")
			b.ReportMetric(float64(rep.Throttled), "throttled")
		})
	}
}

// BenchmarkAblationTasks measures explicit-task overhead: creation,
// steal and completion of empty tasks relative to a bare region.
func BenchmarkAblationTasks(b *testing.B) {
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()
	const tasksPerRegion = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {
			tc.Master(func() {
				for t := 0; t < tasksPerRegion; t++ {
					tc.Task(func(*omp.ThreadCtx) {})
				}
			})
		})
	}
}

// BenchmarkAblationLock measures the try-lock-first acquisition on an
// uncontended lock (the fast path the wait events must not slow).
func BenchmarkAblationLock(b *testing.B) {
	rt := omp.New(omp.Config{NumThreads: 1})
	defer rt.Close()
	var l omp.Lock
	rt.Parallel(func(tc *omp.ThreadCtx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Acquire(tc)
			l.Release()
		}
	})
}

// BenchmarkEventOverhead measures the per-event record cost of the
// measurement hot path — the §V-B "measurement/storage" share the
// paper concludes dominates tool overhead. record appends a sample to
// a per-thread trace buffer; record-stacked also interns a callstack;
// event-full dispatches through the collector into the tool's storage
// path; event-full-parallel does so from many threads at once, each on
// its own descriptor. Run with a fixed iteration count (e.g.
// -benchtime=1000000x) so the buffers stay bounded; before/after
// numbers for the lock-free rebuild are recorded in EXPERIMENTS.md.
func BenchmarkEventOverhead(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		buf := perf.NewTraceBuffer(1<<20, 0)
		s := perf.Sample{Time: 1, Thread: 0, Event: 1, State: 2, StackID: perf.NoStack}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Append(s)
		}
	})
	b.Run("record-stacked", func(b *testing.B) {
		buf := perf.NewTraceBuffer(1<<20, 0)
		pcs := perf.Callstack(0, 32)
		s := perf.Sample{Time: 1, Thread: 0, Event: 1, State: 2}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.AppendStacked(s, pcs)
		}
	})
	b.Run("event-full", func(b *testing.B) {
		c := collector.New()
		ti := collector.NewThreadInfo(0)
		c.BindThread(ti)
		tl, err := tool.AttachCollector(c, tool.Options{Measure: true, BufferCap: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		defer tl.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Event(ti, collector.EventThrBeginIBar)
		}
	})
	// event-full-obs is event-full with the observability plane enabled
	// (registry wired, HTTP server up, /metrics verified live before and
	// after the timed loop): the acceptance check that enabling the
	// plane adds nothing to the measurement path — obs reads the hot
	// path's existing atomics and snapshots at scrape time only.
	b.Run("event-full-obs", func(b *testing.B) {
		c := collector.New()
		ti := collector.NewThreadInfo(0)
		c.BindThread(ti)
		tl, err := tool.AttachCollector(c, tool.Options{
			Measure: true, BufferCap: 1 << 20, ObsAddr: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		defer tl.Detach()
		scrapeMetrics(b, tl.ObsURL())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Event(ti, collector.EventThrBeginIBar)
		}
		b.StopTimer()
		scrapeMetrics(b, tl.ObsURL())
	})
	// event-full-obs-scraped adds a goroutine scraping /metrics in a
	// tight-ish loop during the timed section. The scrape never blocks
	// the writer (lock-free snapshots), but its CPU is real: on a
	// multi-core host it lands on the scraper's core; on a single-CPU
	// host it time-shares with the event loop, and this subbenchmark
	// quantifies that worst case.
	b.Run("event-full-obs-scraped", func(b *testing.B) {
		c := collector.New()
		ti := collector.NewThreadInfo(0)
		c.BindThread(ti)
		tl, err := tool.AttachCollector(c, tool.Options{
			Measure: true, BufferCap: 1 << 20, ObsAddr: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		defer tl.Detach()
		stop := make(chan struct{})
		var scraped atomic.Int64
		go func() {
			client := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
					if resp, err := client.Get(tl.ObsURL() + "/metrics"); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						scraped.Add(1)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Event(ti, collector.EventThrBeginIBar)
		}
		b.StopTimer()
		close(stop)
		b.ReportMetric(float64(scraped.Load()), "scrapes")
	})
	b.Run("event-full-parallel", func(b *testing.B) {
		c := collector.New()
		const nthreads = 64
		tis := make([]*collector.ThreadInfo, nthreads)
		for i := range tis {
			tis[i] = collector.NewThreadInfo(int32(i))
			c.BindThread(tis[i])
		}
		tl, err := tool.AttachCollector(c, tool.Options{Measure: true, BufferCap: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		defer tl.Detach()
		var next atomic.Int32
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ti := tis[int(next.Add(1)-1)%nthreads]
			for pb.Next() {
				c.Event(ti, collector.EventThrBeginIBar)
			}
		})
	})
}

// scrapeMetrics pulls /metrics once and fails the benchmark if the
// plane is not serving.
func scrapeMetrics(b *testing.B, base string) {
	b.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		b.Fatalf("obs plane not serving: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// sanitize makes benchmark sub-names shell-friendly.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
