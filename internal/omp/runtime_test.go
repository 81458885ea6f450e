package omp

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"goomp/internal/collector"
)

func newRT(t *testing.T, cfg Config) *RT {
	t.Helper()
	r := New(cfg)
	t.Cleanup(r.Close)
	return r
}

func TestParallelTeamSizeAndThreadNums(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	var seen [4]atomic.Int32
	r.Parallel(func(tc *ThreadCtx) {
		if tc.NumThreads() != 4 {
			t.Errorf("NumThreads = %d, want 4", tc.NumThreads())
		}
		seen[tc.ThreadNum()].Add(1)
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("thread %d ran %d times, want 1", i, got)
		}
	}
}

func TestParallelNOverridesTeamSize(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	var count atomic.Int32
	r.ParallelN(6, func(tc *ThreadCtx) {
		if tc.NumThreads() != 6 {
			t.Errorf("NumThreads = %d, want 6", tc.NumThreads())
		}
		count.Add(1)
	})
	if count.Load() != 6 {
		t.Errorf("%d threads ran, want 6 (pool must grow on demand)", count.Load())
	}
	// Shrinking back is also legal: idle workers simply stay asleep.
	count.Store(0)
	r.ParallelN(2, func(tc *ThreadCtx) { count.Add(1) })
	if count.Load() != 2 {
		t.Errorf("%d threads ran, want 2", count.Load())
	}
}

func TestSequentialRegionsReuseWorkers(t *testing.T) {
	r := newRT(t, Config{NumThreads: 3})
	total := int64(0)
	for k := 0; k < 50; k++ {
		var local atomic.Int64
		r.Parallel(func(tc *ThreadCtx) { local.Add(1) })
		total += local.Load()
	}
	if total != 150 {
		t.Errorf("total executions = %d, want 150", total)
	}
	if got := r.RegionCalls(); got != 50 {
		t.Errorf("RegionCalls = %d, want 50", got)
	}
}

func TestStaticBoundsPartitionProperty(t *testing.T) {
	// Every iteration is assigned to exactly one thread, blocks are
	// contiguous and balanced within one iteration.
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 2000)
		p := 1 + int(pRaw%33)
		covered := 0
		prevHi := 0
		minSz, maxSz := n+1, -1
		for tid := 0; tid < p; tid++ {
			lo, hi := StaticBounds(tid, p, n)
			if lo != prevHi || hi < lo {
				return false
			}
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			covered += sz
			prevHi = hi
		}
		if covered != n || prevHi != n {
			return false
		}
		return n == 0 || maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStaticBoundsOwnershipProperty(t *testing.T) {
	// The partition property stated directly on an ownership array:
	// every iteration in [0,n) is claimed by exactly one thread (so the
	// blocks are disjoint and cover the domain exactly), every block is
	// in range, and blocks are ordered by thread id.
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw % 4096)
		p := 1 + int(pRaw%64)
		owner := make([]int, n)
		for i := range owner {
			owner[i] = -1
		}
		prevLo := -1
		for tid := 0; tid < p; tid++ {
			lo, hi := StaticBounds(tid, p, n)
			if lo < 0 || hi < lo || hi > n {
				return false // block out of range
			}
			if hi > lo && lo <= prevLo {
				return false // non-empty blocks must be ordered by tid
			}
			if hi > lo {
				prevLo = lo
			}
			for i := lo; i < hi; i++ {
				if owner[i] != -1 {
					return false // iteration claimed twice
				}
				owner[i] = tid
			}
		}
		for _, o := range owner {
			if o == -1 {
				return false // iteration never claimed
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStaticBoundsDegenerate(t *testing.T) {
	if lo, hi := StaticBounds(0, 0, 10); lo != 0 || hi != 0 {
		t.Errorf("zero threads: (%d,%d)", lo, hi)
	}
	if lo, hi := StaticBounds(3, 4, 0); lo != 0 || hi != 0 {
		t.Errorf("zero iterations: (%d,%d)", lo, hi)
	}
	if lo, hi := StaticBounds(0, 1, 5); lo != 0 || hi != 5 {
		t.Errorf("single thread: (%d,%d)", lo, hi)
	}
}

// checkCoverage runs a worksharing loop and verifies each iteration
// executes exactly once.
func checkCoverage(t *testing.T, threads, n int, run func(tc *ThreadCtx, mark func(i int))) {
	t.Helper()
	r := newRT(t, Config{NumThreads: threads})
	counts := make([]int32, n)
	r.Parallel(func(tc *ThreadCtx) {
		run(tc, func(i int) { atomic.AddInt32(&counts[i], 1) })
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d executed %d times, want 1", i, c)
		}
	}
}

func TestForCoversAllIterations(t *testing.T) {
	checkCoverage(t, 4, 1037, func(tc *ThreadCtx, mark func(int)) {
		tc.For(1037, mark)
	})
}

func TestForNoWaitCoversAllIterations(t *testing.T) {
	checkCoverage(t, 3, 100, func(tc *ThreadCtx, mark func(int)) {
		tc.ForNoWait(100, mark)
		tc.Barrier()
	})
}

func TestForSchedCoverage(t *testing.T) {
	cases := []struct {
		name  string
		sched Schedule
		chunk int
	}{
		{"static-even", ScheduleStatic, 0},
		{"static-chunk1", ScheduleStatic, 1},
		{"static-chunk7", ScheduleStatic, 7},
		{"dynamic-chunk1", ScheduleDynamic, 1},
		{"dynamic-chunk13", ScheduleDynamic, 13},
		{"guided-chunk1", ScheduleGuided, 1},
		{"guided-chunk4", ScheduleGuided, 4},
		{"runtime", ScheduleRuntime, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkCoverage(t, 4, 509, func(tc *ThreadCtx, mark func(int)) {
				tc.ForSched(509, c.sched, c.chunk, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						mark(i)
					}
				})
			})
		})
	}
}

// Property: every schedule covers every iteration exactly once for
// arbitrary loop and team sizes.
func TestScheduleCoverageProperty(t *testing.T) {
	scheds := []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided}
	f := func(nRaw uint16, pRaw, cRaw, sRaw uint8) bool {
		n := int(nRaw % 600)
		p := 1 + int(pRaw%8)
		chunk := int(cRaw % 16)
		sched := scheds[int(sRaw)%len(scheds)]
		r := New(Config{NumThreads: p})
		defer r.Close()
		counts := make([]int32, n)
		r.Parallel(func(tc *ThreadCtx) {
			tc.ForSched(n, sched, chunk, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
		})
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGuidedChunkSequence pins the exact chunk sequence a
// single-threaded guided loop hands out: each claim takes
// remaining/(2p) iterations, clamped below by the chunk size, so the
// sequence is deterministic for p=1. Regressions in the claim
// arithmetic (batching must never change guided boundaries) show up as
// a different table.
func TestGuidedChunkSequence(t *testing.T) {
	type span struct{ lo, hi int }
	cases := []struct {
		name  string
		n     int
		chunk int
		want  []span
	}{
		{
			// Halving sequence down to single iterations.
			name: "n10-chunk1", n: 10, chunk: 1,
			want: []span{{0, 5}, {5, 7}, {7, 8}, {8, 9}, {9, 10}},
		},
		{
			// A chunk larger than the whole loop: one clamped claim.
			name: "chunk-exceeds-n", n: 5, chunk: 8,
			want: []span{{0, 5}},
		},
		{
			// Min-chunk clamping: once remaining/(2p) drops below the
			// chunk size, claims stay at chunk granularity (the final
			// claim is truncated at n).
			name: "n16-chunk3-clamp", n: 16, chunk: 3,
			want: []span{{0, 8}, {8, 12}, {12, 15}, {15, 16}},
		},
		{
			// Zero iterations: no chunks at all.
			name: "empty", n: 0, chunk: 4,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRT(t, Config{NumThreads: 1})
			var got []span
			r.Parallel(func(tc *ThreadCtx) {
				tc.ForSched(c.n, ScheduleGuided, c.chunk, func(lo, hi int) {
					got = append(got, span{lo, hi})
				})
			})
			if len(got) != len(c.want) {
				t.Fatalf("chunk sequence %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("chunk %d = %v, want %v (full: %v)", i, got[i], c.want[i], got)
				}
			}
		})
	}
}

func TestConsecutiveWorksharingLoops(t *testing.T) {
	// Descriptor sequence numbers must stay aligned across threads over
	// many constructs, including nowait ones.
	r := newRT(t, Config{NumThreads: 4})
	const loops = 20
	const n = 64
	counts := make([]int32, loops*n)
	var team *Team
	r.Parallel(func(tc *ThreadCtx) {
		if tc.ThreadNum() == 0 {
			team = tc.team
		}
		for l := 0; l < loops; l++ {
			base := l * n
			switch l % 3 {
			case 0:
				tc.ForSched(n, ScheduleDynamic, 3, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[base+i], 1)
					}
				})
			case 1:
				tc.ForSchedNoWait(n, ScheduleGuided, 2, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[base+i], 1)
					}
				})
				tc.Barrier()
			default:
				tc.For(n, func(i int) { atomic.AddInt32(&counts[base+i], 1) })
			}
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("slot %d executed %d times, want 1", i, c)
		}
	}
	// Every ring slot must have fully retired: its last claimed
	// episode marked free again.
	for i := range team.ring {
		ld := &team.ring[i]
		if c, f := ld.claim.Load(), ld.free.Load(); c != f {
			t.Errorf("ring slot %d not retired: claim=%d free=%d", i, c, f)
		}
	}
}

// runBarrierPhases is the cross-phase visibility check: after each
// barrier, every thread must observe the full previous phase — a data
// race across phases would show as a torn counter.
func runBarrierPhases(t *testing.T, threads int) {
	t.Helper()
	r := newRT(t, Config{NumThreads: threads})
	const phases = 25
	var counter atomic.Int64
	fail := make(chan string, threads)
	r.Parallel(func(tc *ThreadCtx) {
		for p := 1; p <= phases; p++ {
			counter.Add(1)
			tc.Barrier()
			if got := counter.Load(); got != int64(threads*p) {
				select {
				case fail <- "phase tear":
				default:
				}
			}
			tc.Barrier()
		}
	})
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

func TestBarrierPhases(t *testing.T) { runBarrierPhases(t, 4) }

func TestSpinBarrier(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4, SpinBarrier: true})
	var counter atomic.Int64
	r.Parallel(func(tc *ThreadCtx) {
		for p := 1; p <= 10; p++ {
			counter.Add(1)
			tc.Barrier()
			if got := counter.Load(); got != int64(4*p) {
				t.Errorf("phase %d: counter = %d, want %d", p, got, 4*p)
			}
			tc.Barrier()
		}
	})
}

func TestSingleRunsExactlyOnce(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	var ran atomic.Int32
	var after atomic.Int32
	r.Parallel(func(tc *ThreadCtx) {
		for k := 0; k < 10; k++ {
			tc.Single(func() { ran.Add(1) })
			// The implicit barrier guarantees the single completed.
			after.Add(ran.Load())
		}
	})
	if ran.Load() != 10 {
		t.Errorf("single ran %d times, want 10", ran.Load())
	}
}

func TestSingleNoWait(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	var ran atomic.Int32
	r.Parallel(func(tc *ThreadCtx) {
		tc.SingleNoWait(func() { ran.Add(1) })
		tc.Barrier()
	})
	if ran.Load() != 1 {
		t.Errorf("single ran %d times, want 1", ran.Load())
	}
}

func TestMasterOnlyThreadZero(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	var who atomic.Int32
	who.Store(-1)
	var runs atomic.Int32
	r.Parallel(func(tc *ThreadCtx) {
		tc.Master(func() {
			who.Store(int32(tc.ThreadNum()))
			runs.Add(1)
		})
	})
	if who.Load() != 0 || runs.Load() != 1 {
		t.Errorf("master ran %d times on thread %d", runs.Load(), who.Load())
	}
}

func TestSectionsRunAllExactlyOnce(t *testing.T) {
	r := newRT(t, Config{NumThreads: 3})
	var counts [7]atomic.Int32
	fns := make([]func(), 7)
	for i := range fns {
		i := i
		fns[i] = func() { counts[i].Add(1) }
	}
	r.Parallel(func(tc *ThreadCtx) {
		tc.Sections(fns...)
	})
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Errorf("section %d ran %d times, want 1", i, counts[i].Load())
		}
	}
}

func TestOrderedSectionsRetireInOrder(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	const n = 200
	order := make([]int, 0, n)
	r.Parallel(func(tc *ThreadCtx) {
		tc.ForOrdered(n, func(i int, ord *Ordered) {
			ord.Do(func() { order = append(order, i) }) // ordered: no race
		})
	})
	if len(order) != n {
		t.Fatalf("got %d ordered sections, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; ordered sections retired out of order", i, v)
		}
	}
}

func TestRegionIDsMonotonicAndParentZero(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	var ids []uint64
	for k := 0; k < 5; k++ {
		r.Parallel(func(tc *ThreadCtx) {
			tc.Master(func() {
				ids = append(ids, tc.RegionID())
				if p := tc.Info().Team().ParentRegionID; p != 0 {
					t.Errorf("non-nested parent region ID = %d, want 0", p)
				}
			})
		})
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Errorf("region IDs not increasing: %v", ids)
		}
	}
}

func TestSerializedNestedRegion(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4}) // Nested: false
	var forks, inner atomic.Int64
	q := r.Collector().NewQueue()
	collector.Control(q, collector.ReqStart)
	h := r.Collector().NewCallbackHandle(func(e collector.Event, ti *collector.ThreadInfo) {
		forks.Add(1)
	})
	collector.Register(q, collector.EventFork, h)

	var outerID uint64
	var nestedParent uint64
	r.Parallel(func(tc *ThreadCtx) {
		if tc.ThreadNum() == 0 {
			outerID = tc.RegionID()
		}
		tc.Parallel(3, func(in *ThreadCtx) {
			inner.Add(1)
			if in.NumThreads() != 1 {
				t.Errorf("serialized nested team size = %d, want 1", in.NumThreads())
			}
			if tc.ThreadNum() == 0 && in.ThreadNum() == 0 {
				nestedParent = in.team.info.ParentRegionID
			}
		})
	})
	// Serialized nesting: one fork for the outer region only.
	if forks.Load() != 1 {
		t.Errorf("fork events = %d, want 1 (no fork for serialized nested regions)", forks.Load())
	}
	if inner.Load() != 4 {
		t.Errorf("nested bodies = %d, want 4 (one per encountering thread)", inner.Load())
	}
	if nestedParent != outerID {
		t.Errorf("nested parent region ID = %d, want outer ID %d", nestedParent, outerID)
	}
}

// TestNestedForkJoinCarryTheirRegion: the fork and join callbacks of a
// true-nested region see that region — its own ID, the outer region as
// parent, its own site — and the encountering thread in the overhead
// state, as a top-level region's do.
func TestNestedForkJoinCarryTheirRegion(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2, Nested: true})
	type seen struct {
		e     collector.Event
		info  collector.TeamInfo
		state collector.State
	}
	var mu sync.Mutex
	var got []seen
	q := r.Collector().NewQueue()
	collector.Control(q, collector.ReqStart)
	h := r.Collector().NewCallbackHandle(func(e collector.Event, ti *collector.ThreadInfo) {
		var s seen
		if info := ti.Team(); info != nil {
			s.info = *info
		}
		s.e, s.state = e, ti.State()
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	collector.Register(q, collector.EventFork, h)
	collector.Register(q, collector.EventJoin, h)

	var outer, inner collector.TeamInfo
	r.Parallel(func(tc *ThreadCtx) {
		if tc.ThreadNum() != 0 {
			return
		}
		outer = *tc.Info().Team()
		tc.Parallel(2, func(in *ThreadCtx) {
			if in.ThreadNum() == 0 {
				inner = *in.Info().Team()
			}
		})
	})
	want := []struct {
		e    collector.Event
		info collector.TeamInfo
	}{
		{collector.EventFork, outer},
		{collector.EventFork, inner},
		{collector.EventJoin, inner},
		{collector.EventJoin, outer},
	}
	if len(got) != len(want) {
		t.Fatalf("%d fork/join callbacks, want %d", len(got), len(want))
	}
	if inner.ParentRegionID != outer.RegionID || inner.SitePC == 0 || inner.SitePC == outer.SitePC {
		t.Fatalf("nested team %+v under outer %+v", inner, outer)
	}
	for i, w := range want {
		if g := got[i]; g.e != w.e || g.info != w.info || g.state != collector.StateOverhead {
			t.Errorf("callback %d: %v saw region %d (parent %d, site %#x) in %v; want %v of region %d (parent %d, site %#x) in %v",
				i, g.e, g.info.RegionID, g.info.ParentRegionID, g.info.SitePC, g.state,
				w.e, w.info.RegionID, w.info.ParentRegionID, w.info.SitePC, collector.StateOverhead)
		}
	}
}

// TestAllocRegion pins what an empty top-level region allocates:
// nothing — the team, its descriptor and the members' contexts come
// back from the pool. The nested path shares the bracket, and must not
// move anything of the top-level one to the heap.
func TestAllocRegion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	for _, c := range []struct {
		threads int
		want    float64
	}{{1, 0}, {2, 0}, {4, 0}} {
		r := newRT(t, Config{NumThreads: c.threads})
		body := func(*ThreadCtx) {}
		r.Parallel(body) // the pool
		if got := testing.AllocsPerRun(200, func() { r.Parallel(body) }); got != c.want {
			t.Errorf("an empty region on %d threads allocates %.1f times, want %.0f", c.threads, got, c.want)
		}
	}
}

// TestAllocConstructs: a region with a named critical section, a
// single or an ordered loop allocates nothing (a critical's supervision
// label is built only while the hang supervisor runs, a single's
// descriptor is recycled through the team, and ForOrdered's handle is
// the thread's context's).
func TestAllocConstructs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	const threads = 2
	for _, c := range []struct {
		name string
		body func(*ThreadCtx)
		want float64
	}{
		{"critical", func(tc *ThreadCtx) {
			for range 16 {
				tc.Critical("name", func() {})
			}
		}, 0},
		{"single", func(tc *ThreadCtx) {
			for range 16 {
				tc.Single(func() {})
				tc.SingleNoWait(func() {})
			}
		}, 0},
		{"ordered", func(tc *ThreadCtx) {
			tc.ForOrdered(64, func(_ int, o *Ordered) { o.Do(func() {}) })
		}, 0},
	} {
		r := newRT(t, Config{NumThreads: threads})
		r.Parallel(c.body) // the pool, the critical's lock, the ring's condition variables
		if got := testing.AllocsPerRun(200, func() { r.Parallel(c.body) }); got != c.want {
			t.Errorf("%s: a region allocates %.1f times, want %.0f", c.name, got, c.want)
		}
	}
}

// TestAllocParallelFor: a combined parallel-for allocates nothing per
// region — its count and body reach the members through the pooled
// team, not a closure — and leaves no pointer to the body on the team
// it returns to the pool.
func TestAllocParallelFor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	for _, threads := range []int{1, 2, 4} {
		r := newRT(t, Config{NumThreads: threads})
		var sums [4]int64
		body := func(tc *ThreadCtx, i int) { sums[tc.ThreadNum()] += int64(i) }
		r.ParallelFor(100, body) // the pool
		if got := testing.AllocsPerRun(200, func() { r.ParallelFor(100, body) }); got != 0 {
			t.Errorf("a parallel-for on %d threads allocates %.1f times, want 0", threads, got)
		}
		if got := sums[0] + sums[1] + sums[2] + sums[3]; got != 202*4950 {
			t.Errorf("%d threads: iterations sum to %d, want %d", threads, got, 202*4950)
		}
		r.teamMu.Lock()
		for _, team := range r.teamFree[threads] {
			if team.pfor.body != nil {
				t.Errorf("%d threads: a pooled team keeps the loop body", threads)
			}
		}
		r.teamMu.Unlock()
	}
}

func TestTrueNestedRegion(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2, Nested: true})
	var innerThreads atomic.Int64
	var outerID, parentSeen uint64
	r.Parallel(func(tc *ThreadCtx) {
		if tc.ThreadNum() == 0 {
			outerID = tc.RegionID()
			tc.Parallel(3, func(in *ThreadCtx) {
				innerThreads.Add(1)
				if in.ThreadNum() == 0 {
					parentSeen = in.team.info.ParentRegionID
				}
			})
		}
	})
	if innerThreads.Load() != 3 {
		t.Errorf("true nested team ran %d threads, want 3", innerThreads.Load())
	}
	if parentSeen != outerID {
		t.Errorf("nested parent region ID = %d, want %d", parentSeen, outerID)
	}
}

func TestRegionSitesTableI(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	for k := 0; k < 3; k++ {
		r.Parallel(func(tc *ThreadCtx) {}) // site A
	}
	r.Parallel(func(tc *ThreadCtx) {}) // site B
	sites := r.Sites()
	if len(sites) != 2 {
		t.Fatalf("distinct sites = %d, want 2", len(sites))
	}
	var calls uint64
	for _, s := range sites {
		calls += s.Calls
		if s.File == "?" || s.Line == 0 {
			t.Errorf("site missing source mapping: %+v", s)
		}
	}
	if calls != 4 || r.RegionCalls() != 4 {
		t.Errorf("calls = %d / RegionCalls = %d, want 4", calls, r.RegionCalls())
	}
	r.ResetStats()
	if len(r.Sites()) != 0 || r.RegionCalls() != 0 {
		t.Error("ResetStats did not clear statistics")
	}
}

func TestMasterStateOutsideRegions(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	q := r.Collector().NewQueue()
	st, _, ec := collector.QueryState(q, 0)
	if ec != collector.ErrOK || st != collector.StateSerial {
		t.Errorf("master state outside regions = (%v, %v), want serial", st, ec)
	}
	r.Parallel(func(tc *ThreadCtx) {})
	st, _, ec = collector.QueryState(q, 0)
	if ec != collector.ErrOK || st != collector.StateSerial {
		t.Errorf("master state after region = (%v, %v), want serial", st, ec)
	}
}

func TestSlaveIdleStateBetweenRegions(t *testing.T) {
	r := newRT(t, Config{NumThreads: 3})
	r.Parallel(func(tc *ThreadCtx) {})
	// After the region, slaves return to the idle state. The loop
	// tolerates the short window in which a slave is still finishing
	// its post-barrier bookkeeping.
	q := r.Collector().NewQueue()
	for _, id := range []int32{1, 2} {
		ok := false
		for try := 0; try < 200; try++ {
			st, _, ec := collector.QueryState(q, id)
			if ec == collector.ErrOK && st == collector.StateIdle {
				ok = true
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if !ok {
			t.Errorf("slave %d never reached the idle state", id)
		}
	}
}

func TestPRIDQueryDuringRegion(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	q := r.Collector().NewQueue()
	var got uint64
	var ec collector.ErrorCode
	r.Parallel(func(tc *ThreadCtx) {
		tc.Master(func() {
			got, ec = collector.QueryPRID(q, collector.ReqCurrentPRID, 0)
		})
		tc.Barrier()
	})
	if ec != collector.ErrOK || got == 0 {
		t.Errorf("in-region PRID query = (%d, %v)", got, ec)
	}
	// Outside the region the master has no team: sequence error.
	_, ec = collector.QueryPRID(q, collector.ReqCurrentPRID, 0)
	if ec != collector.ErrSequence {
		t.Errorf("out-of-region PRID query ec = %v, want %v", ec, collector.ErrSequence)
	}
}

func TestCloseIsIdempotentAndUnbinds(t *testing.T) {
	r := New(Config{NumThreads: 3})
	r.Parallel(func(tc *ThreadCtx) {})
	r.Close()
	r.Close() // second close must be a no-op
	if r.Collector().Thread(1) != nil {
		t.Error("slave descriptor still bound after Close")
	}
}

func TestRegisterSymbolLifecycle(t *testing.T) {
	r := New(Config{NumThreads: 2})
	if err := r.RegisterSymbol(); err != nil {
		t.Fatalf("register: %v", err)
	}
	r2 := New(Config{NumThreads: 2})
	if err := r2.RegisterSymbol(); err == nil {
		t.Error("second runtime registered the same symbol")
	}
	r2.Close()
	r.Close()
	// After Close the symbol is free again.
	r3 := New(Config{NumThreads: 2})
	if err := r3.RegisterSymbol(); err != nil {
		t.Errorf("register after close: %v", err)
	}
	r3.Close()
}

func TestScheduleStrings(t *testing.T) {
	for _, s := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided, ScheduleRuntime} {
		if s.String() == "" || s.String() == "schedule(?)" {
			t.Errorf("schedule %d unnamed", s)
		}
	}
	if Schedule(99).String() != "schedule(?)" {
		t.Error("invalid schedule name")
	}
}

func TestParallelForConvenience(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	counts := make([]int32, 500)
	r.ParallelFor(500, func(tc *ThreadCtx, i int) {
		atomic.AddInt32(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d executed %d times", i, c)
		}
	}
}

func TestDefaultNumThreads(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	if r.Config().NumThreads < 1 {
		t.Error("default NumThreads must be at least 1")
	}
}

func TestConcurrentRuntimes(t *testing.T) {
	// Distinct RT instances (e.g. one per simulated MPI rank) must not
	// interfere.
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := New(Config{NumThreads: 2})
			defer r.Close()
			var sum atomic.Int64
			for i := 0; i < 20; i++ {
				r.Parallel(func(tc *ThreadCtx) { sum.Add(1) })
			}
			if sum.Load() != 40 {
				t.Errorf("sum = %d, want 40", sum.Load())
			}
		}()
	}
	wg.Wait()
}
