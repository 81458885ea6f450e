package omp

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// EPCC-style synchronization overhead benchmarks for the team barrier,
// combining reductions and batched loop scheduling. EXPERIMENTS.md
// "Synchronization core" holds the barrier sweep (threads × GOMAXPROCS)
// that left one barrier; its surviving rows are regenerated with
//
//	go test -run NONE -bench 'BenchmarkBarrier' -cpu 1,2,4 -count 5 ./internal/omp
//
// (BenchmarkBarrier is the passive column, BenchmarkBarrierSpin the
// active one).

var syncBenchTeams = []int{2, 4, 8, 16}

// BenchmarkBarrier measures the per-episode cost of the explicit
// barrier construct, the EPCC BARRIER directive: every thread of the
// team enters b.N barriers back to back.
func BenchmarkBarrier(b *testing.B) {
	for _, n := range syncBenchTeams {
		n := n
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			rt := New(Config{NumThreads: n})
			defer rt.Close()
			rt.Parallel(func(tc *ThreadCtx) {}) // warm the pool
			b.ResetTimer()
			rt.Parallel(func(tc *ThreadCtx) {
				for i := 0; i < b.N; i++ {
					tc.Barrier()
				}
			})
		})
	}
}

// BenchmarkBarrierSpin is BenchmarkBarrier under the active wait
// policy (OMP_WAIT_POLICY=active).
func BenchmarkBarrierSpin(b *testing.B) {
	for _, n := range syncBenchTeams {
		n := n
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			rt := New(Config{NumThreads: n, SpinBarrier: true})
			defer rt.Close()
			rt.Parallel(func(tc *ThreadCtx) {})
			b.ResetTimer()
			rt.Parallel(func(tc *ThreadCtx) {
				for i := 0; i < b.N; i++ {
					tc.Barrier()
				}
			})
		})
	}
}

// BenchmarkParallelRegion measures the fork/join of an empty region,
// the EPCC PARALLEL directive with no tool attached: the fork, the
// workers' wake, the closing barrier and the join. Its allocations are
// what a region costs the heap once its team comes from the pool.
func BenchmarkParallelRegion(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			rt := New(Config{NumThreads: n})
			defer rt.Close()
			body := func(*ThreadCtx) {}
			rt.Parallel(body) // the pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Parallel(body)
			}
		})
	}
}

// BenchmarkReduction measures the EPCC REDUCTION directive: each
// thread contributes one value per iteration to a shared sum.
func BenchmarkReduction(b *testing.B) {
	for _, n := range syncBenchTeams {
		n := n
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			rt := New(Config{NumThreads: n})
			defer rt.Close()
			var sum float64
			rt.Parallel(func(tc *ThreadCtx) {}) // warm the pool
			b.ResetTimer()
			rt.Parallel(func(tc *ThreadCtx) {
				for i := 0; i < b.N; i++ {
					tc.ReduceFloat64(&sum, 1)
				}
			})
			b.StopTimer()
			if want := float64(n) * float64(b.N); sum != want {
				b.Fatalf("reduction sum = %g, want %g", sum, want)
			}
		})
	}
}

// BenchmarkDynamicFor measures a dynamically scheduled worksharing
// loop (the EPCC DYNAMIC schedbench point): 1024 iterations, chunk 4,
// trivial body, including the construct's closing barrier.
func BenchmarkDynamicFor(b *testing.B) {
	const n, chunk = 1024, 4
	for _, p := range syncBenchTeams {
		p := p
		b.Run(fmt.Sprintf("threads-%d", p), func(b *testing.B) {
			rt := New(Config{NumThreads: p})
			defer rt.Close()
			var sink atomic.Int64
			rt.Parallel(func(tc *ThreadCtx) {}) // warm the pool
			b.ResetTimer()
			rt.Parallel(func(tc *ThreadCtx) {
				local := 0
				for i := 0; i < b.N; i++ {
					tc.ForSched(n, ScheduleDynamic, chunk, func(lo, hi int) {
						local += hi - lo
					})
				}
				sink.Add(int64(local))
			})
			b.StopTimer()
			if got, want := sink.Load(), int64(n)*int64(b.N); got != want {
				b.Fatalf("dynamic loop covered %d iterations, want %d", got, want)
			}
		})
	}
}

// BenchmarkGuidedFor is the guided-schedule companion of
// BenchmarkDynamicFor.
func BenchmarkGuidedFor(b *testing.B) {
	const n, chunk = 1024, 4
	for _, p := range syncBenchTeams {
		p := p
		b.Run(fmt.Sprintf("threads-%d", p), func(b *testing.B) {
			rt := New(Config{NumThreads: p})
			defer rt.Close()
			var sink atomic.Int64
			rt.Parallel(func(tc *ThreadCtx) {})
			b.ResetTimer()
			rt.Parallel(func(tc *ThreadCtx) {
				local := 0
				for i := 0; i < b.N; i++ {
					tc.ForSched(n, ScheduleGuided, chunk, func(lo, hi int) {
						local += hi - lo
					})
				}
				sink.Add(int64(local))
			})
			b.StopTimer()
			if got, want := sink.Load(), int64(n)*int64(b.N); got != want {
				b.Fatalf("guided loop covered %d iterations, want %d", got, want)
			}
		})
	}
}

// --- False-sharing microbenchmark (satellite: padded hot atomics) ---

// sharedCounters packs two hot atomics the way the pre-padding
// loopDesc did: updates to one invalidate the cache line holding the
// other.
type sharedCounters struct {
	a atomic.Int64
	b atomic.Int64
}

// paddedCounters separates the same two atomics by a cache line, the
// layout the padded loopDesc uses for next and arrived.
type paddedCounters struct {
	a atomic.Int64
	_ [56]byte
	b atomic.Int64
	_ [56]byte
}

// BenchmarkFalseSharing hammers two atomics from two goroutine groups,
// shared-line vs padded: the delta is the false-sharing cost the
// loopDesc padding removes. On a single-CPU host the delta is small
// (no cross-core invalidations); the layout still matters on real
// multi-core hosts.
func BenchmarkFalseSharing(b *testing.B) {
	const perOp = 64 // atomic increments per pb.Next
	run := func(b *testing.B, a1, a2 *atomic.Int64) {
		var tid atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			target := a1
			if tid.Add(1)%2 == 0 {
				target = a2
			}
			for pb.Next() {
				for i := 0; i < perOp; i++ {
					target.Add(1)
				}
			}
		})
	}
	b.Run("shared-line", func(b *testing.B) {
		var c sharedCounters
		run(b, &c.a, &c.b)
	})
	b.Run("padded", func(b *testing.B) {
		var c paddedCounters
		run(b, &c.a, &c.b)
	})
}

// BenchmarkLoopDescriptor measures the per-construct descriptor cost:
// back-to-back nowait worksharing constructs, which on the map-based
// path paid a team mutex plus a descriptor allocation per construct
// and on the ring path reuse preallocated padded slots.
func BenchmarkLoopDescriptor(b *testing.B) {
	rt := New(Config{NumThreads: 4})
	defer rt.Close()
	rt.Parallel(func(tc *ThreadCtx) {})
	b.ResetTimer()
	rt.Parallel(func(tc *ThreadCtx) {
		for i := 0; i < b.N; i++ {
			tc.ForSchedNoWait(4, ScheduleDynamic, 1, func(lo, hi int) {})
		}
	})
}
