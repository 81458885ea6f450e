package omp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"goomp/internal/collector"
)

// Every iteration of a steal-scheduled loop runs exactly once, under
// team sizes and chunk sizes that force owner pops and concurrent
// steal-half transfers to race. Skewed busy work on the low iterations
// keeps the owner of the heavy deque occupied so thieves actually hit
// its word. Run with -race this doubles as the memory-model check on
// the packed-word protocol.
func TestStealExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{1, 3, 16} {
			for _, n := range []int{0, 1, 5, 97, 4096} {
				t.Run(fmt.Sprintf("p%d_c%d_n%d", p, chunk, n), func(t *testing.T) {
					r := newRT(t, Config{NumThreads: p})
					counts := make([]int32, n+1)
					r.Parallel(func(tc *ThreadCtx) {
						tc.ForSched(n, ScheduleSteal, chunk, func(lo, hi int) {
							if lo < 0 || hi > n || lo >= hi {
								t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
							}
							for i := lo; i < hi; i++ {
								atomic.AddInt32(&counts[i], 1)
								if i < 8 {
									// Heavy head: hold the owner in the body so
									// other threads run dry and steal.
									for s := 0; s < 50; s++ {
										runtime.Gosched()
									}
								}
							}
						})
					})
					for i := 0; i < n; i++ {
						if counts[i] != 1 {
							t.Fatalf("iteration %d ran %d times", i, counts[i])
						}
					}
				})
			}
		}
	}
}

// boundaries runs one loop and returns the sorted multiset of chunk
// boundaries the team observed.
func boundaries(r *RT, n int, sched Schedule, chunk int) []string {
	var mu sync.Mutex
	var got []string
	r.Parallel(func(tc *ThreadCtx) {
		tc.ForSched(n, sched, chunk, func(lo, hi int) {
			mu.Lock()
			got = append(got, fmt.Sprintf("%d:%d", lo, hi))
			mu.Unlock()
		})
	})
	sort.Strings(got)
	return got
}

// The steal schedule's chunk boundaries are the dynamic schedule's:
// [k*chunk, min((k+1)*chunk, n)) for every k — only the assignment of
// chunks to threads differs.
func TestStealBoundariesMatchDynamic(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for _, chunk := range []int{1, 4, 7} {
			for _, n := range []int{1, 10, 63, 100} {
				rs := newRT(t, Config{NumThreads: p})
				rd := newRT(t, Config{NumThreads: p})
				got := boundaries(rs, n, ScheduleSteal, chunk)
				want := boundaries(rd, n, ScheduleDynamic, chunk)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("p=%d chunk=%d n=%d: steal %v != dynamic %v", p, chunk, n, got, want)
				}
			}
		}
	}
}

// A dynamic loop never runs under the steal scheduler, whatever its
// size: it raises no chunk-steal events at 50 iterations or at 4096.
// Stealing is asked for by name (ScheduleSteal, OMP_SCHEDULE=steal).
func TestDynamicLoopsNeverSteal(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	q := r.Collector().NewQueue()
	collector.Control(q, collector.ReqStart)
	var steals atomic.Int64
	h := r.Collector().NewCallbackHandle(func(e collector.Event, ti *collector.ThreadInfo) {
		steals.Add(1)
	})
	collector.Register(q, collector.EventChunkSteal, h)

	for _, n := range []int{50, 4096} {
		before := steals.Load()
		r.Parallel(func(tc *ThreadCtx) {
			tc.ForSched(n, ScheduleDynamic, 1, func(lo, hi int) {
				for s := 0; s < 20; s++ {
					runtime.Gosched()
				}
			})
		})
		if got := steals.Load() - before; got != 0 {
			t.Errorf("n=%d: %d steal events from a dynamic loop, want 0", n, got)
		}
	}
}

// Steal events carry the victim's team-local thread number in the
// descriptor's steal-victim slot, the thief is the dispatching thread,
// and a thread never appears as its own victim.
func TestStealVictimThiefPairing(t *testing.T) {
	r := newRT(t, Config{NumThreads: 8})
	q := r.Collector().NewQueue()
	collector.Control(q, collector.ReqStart)
	var mu sync.Mutex
	type edge struct{ thief, victim int32 }
	var edges []edge
	h := r.Collector().NewCallbackHandle(func(e collector.Event, ti *collector.ThreadInfo) {
		mu.Lock()
		edges = append(edges, edge{ti.ID, ti.StealVictim()})
		mu.Unlock()
	})
	collector.Register(q, collector.EventChunkSteal, h)
	collector.Register(q, collector.EventTaskSteal, h)

	r.Parallel(func(tc *ThreadCtx) {
		tc.ForSched(2048, ScheduleSteal, 1, func(lo, hi int) {
			if lo < 8 {
				for s := 0; s < 100; s++ {
					runtime.Gosched()
				}
			}
		})
		tc.Taskwait()
	})
	if len(edges) == 0 {
		t.Fatal("no steal events captured on a skewed steal-scheduled loop")
	}
	for _, e := range edges {
		if e.victim < 0 || e.victim >= 8 {
			t.Fatalf("steal event with victim %d out of team range", e.victim)
		}
		if e.victim == e.thief {
			t.Fatalf("thread %d recorded itself as steal victim", e.thief)
		}
	}
}

// Task deques: tasks submitted by every thread all run exactly once
// even when idle threads steal them, and task-steal events fire.
func TestTaskStealStress(t *testing.T) {
	r := newRT(t, Config{NumThreads: 8})
	q := r.Collector().NewQueue()
	collector.Control(q, collector.ReqStart)
	var taskSteals atomic.Int64
	h := r.Collector().NewCallbackHandle(func(e collector.Event, ti *collector.ThreadInfo) {
		taskSteals.Add(1)
	})
	collector.Register(q, collector.EventTaskSteal, h)

	const perThread = 200
	var ran atomic.Int64
	r.Parallel(func(tc *ThreadCtx) {
		// One producer floods its own deque; the other threads have
		// nothing and must steal to make the barrier's drain finish.
		if tc.ThreadNum() == 0 {
			for i := 0; i < 8*perThread; i++ {
				tc.Task(func(*ThreadCtx) {
					ran.Add(1)
					for s := 0; s < 10; s++ {
						runtime.Gosched()
					}
				})
			}
		}
		tc.Taskwait()
	})
	if ran.Load() != 8*perThread {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), 8*perThread)
	}
	if taskSteals.Load() == 0 {
		t.Error("no task-steal events for a single-producer flood on an 8-thread team")
	}
}

// Taskloop splits [0,n) into grainsize-bounded tasks that cover every
// index exactly once.
func TestTaskloopExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, grain := range []int{0, 1, 7, 1000} {
			for _, n := range []int{0, 1, 63, 1024} {
				r := newRT(t, Config{NumThreads: p})
				counts := make([]int32, n+1)
				r.Parallel(func(tc *ThreadCtx) {
					tc.Single(func() {
						tc.Taskloop(n, grain, func(lo, hi int) {
							if lo < 0 || hi > n || lo >= hi {
								t.Errorf("bad taskloop range [%d,%d)", lo, hi)
							}
							for i := lo; i < hi; i++ {
								atomic.AddInt32(&counts[i], 1)
							}
						})
					})
				})
				for i := 0; i < n; i++ {
					if counts[i] != 1 {
						t.Fatalf("p=%d grain=%d n=%d: index %d ran %d times",
							p, grain, n, i, counts[i])
					}
				}
			}
		}
	}
}

// Taskloop honours the grainsize bound: no generated range exceeds it.
func TestTaskloopGrainBound(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	const n, grain = 1000, 16
	var maxRange atomic.Int64
	r.Parallel(func(tc *ThreadCtx) {
		tc.Single(func() {
			tc.Taskloop(n, grain, func(lo, hi int) {
				w := int64(hi - lo)
				for {
					cur := maxRange.Load()
					if w <= cur || maxRange.CompareAndSwap(cur, w) {
						break
					}
				}
			})
		})
	})
	if maxRange.Load() > grain {
		t.Fatalf("taskloop produced a range of %d > grainsize %d", maxRange.Load(), grain)
	}
}

// Steady-state task submission reuses pooled nodes, groups and deque
// rings: amortized allocations per submitted task stay near zero. The
// bound is lenient (sync.Pool drains under GC pressure) but pins the
// property that submission is not 1-alloc-per-task.
func TestTaskSubmissionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := newRT(t, Config{NumThreads: 2})
	var ran atomic.Int64
	fn := func(*ThreadCtx) { ran.Add(1) }
	// Warm the pools.
	r.Parallel(func(tc *ThreadCtx) {
		tc.Single(func() {
			for i := 0; i < 64; i++ {
				tc.Task(fn)
			}
			tc.Taskwait()
		})
	})
	const tasks = 1000
	avg := testing.AllocsPerRun(5, func() {
		r.Parallel(func(tc *ThreadCtx) {
			tc.Single(func() {
				for i := 0; i < tasks; i++ {
					tc.Task(fn)
				}
				tc.Taskwait()
			})
		})
	})
	if perTask := avg / tasks; perTask > 0.5 {
		t.Errorf("steady-state task submission allocates %.2f objects/task, want < 0.5", perTask)
	}
}

func BenchmarkTaskSubmitSteadyState(b *testing.B) {
	r := New(Config{NumThreads: 2})
	defer r.Close()
	fn := func(*ThreadCtx) {}
	b.ReportAllocs()
	b.ResetTimer()
	r.Parallel(func(tc *ThreadCtx) {
		tc.Single(func() {
			for i := 0; i < b.N; i++ {
				tc.Task(fn)
				if i%256 == 0 {
					tc.Taskwait()
				}
			}
			tc.Taskwait()
		})
	})
}

func BenchmarkScheduleZipf(b *testing.B) {
	work := make([]int, 2048)
	for i := range work {
		w := 2048 / (i + 1)
		if w < 1 {
			w = 1
		}
		work[i] = w
	}
	for _, sched := range []Schedule{ScheduleDynamic, ScheduleSteal} {
		b.Run(sched.String(), func(b *testing.B) {
			r := New(Config{NumThreads: 8})
			defer r.Close()
			sink := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Parallel(func(tc *ThreadCtx) {
					mine := int64(0)
					tc.ForSched(len(work), sched, 1, func(lo, hi int) {
						for j := lo; j < hi; j++ {
							for u := 0; u < work[j]; u++ {
								mine += int64(u & 7)
							}
						}
					})
					atomic.AddInt64(&sink, mine)
				})
			}
			_ = sink
		})
	}
}
