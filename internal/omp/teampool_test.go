package omp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"goomp/internal/collector"
)

// Team pooling: the last member to leave a region returns its team to
// the runtime, and the next fork of that size runs on it. These tests
// drive pooled teams through every construct that keeps state in the
// team — the loop ring, singles, ordered, both reduction paths and the
// task deques — and check each region's results exactly, so a reused
// team that leaked anything of its previous region fails here.

// reuseLoops is more nowait loops than the ring has slots, so every
// region wraps the ring and every slot is claimed again.
const reuseLoops = loopRingSize + 3

// regionTally is what one region's constructs computed, checked against
// the exact values for its team size.
type regionTally struct {
	loops      [reuseLoops]atomic.Int64
	singles    atomic.Int64
	order      []int
	sumA, sumB int64   // typed int64 reductions: sumB goes to the overflow entries
	fA, fB     float64 // typed float64 reductions
	generic    int64   // generic Reduce
	tasks      atomic.Int64
	taskloop   atomic.Int64
}

const (
	reuseN     = 37 // iterations per loop
	reuseTasks = 5  // explicit tasks per thread
)

// reuseBody runs every stateful construct once per region; the loops
// run nowait, so a thread can be several ring slots ahead of another.
func reuseBody(tally *regionTally) func(tc *ThreadCtx) {
	return func(tc *ThreadCtx) {
		scheds := []Schedule{ScheduleDynamic, ScheduleGuided, ScheduleSteal}
		for l := 0; l < reuseLoops; l++ {
			acc := &tally.loops[l]
			tc.ForSchedNoWait(reuseN, scheds[l%len(scheds)], 1+l%3, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					acc.Add(int64(i))
				}
			})
		}
		tc.Single(func() { tally.singles.Add(1) })
		tc.SingleNoWait(func() { tally.singles.Add(1) })
		tc.ForOrdered(reuseN, func(i int, ord *Ordered) {
			ord.Do(func() { tally.order = append(tally.order, i) })
		})
		id := int64(tc.ThreadNum())
		tc.ReduceInt64(&tally.sumA, id+1)
		tc.ReduceInt64(&tally.sumB, 10*(id+1))
		tc.ReduceFloat64(&tally.fA, 0.5)
		tc.ReduceFloat64(&tally.fB, 0.25)
		tc.Reduce(func() { tally.generic += id })
		for k := 0; k < reuseTasks; k++ {
			tc.Task(func(*ThreadCtx) { tally.tasks.Add(1) })
		}
		// Thread 0 waits for its tasks; the others' drain at the
		// Single's barrier.
		if id == 0 {
			tc.Taskwait()
		}
		tc.Single(func() {
			tc.Taskloop(reuseN, 4, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					tally.taskloop.Add(int64(i))
				}
			})
		})
	}
}

func checkTally(t *testing.T, what string, p int, tally *regionTally) {
	t.Helper()
	want := int64(reuseN * (reuseN - 1) / 2)
	for l := range tally.loops {
		if got := tally.loops[l].Load(); got != want {
			t.Errorf("%s: nowait loop %d summed %d, want %d", what, l, got, want)
		}
	}
	if got := tally.singles.Load(); got != 2 {
		t.Errorf("%s: singles ran %d times, want 2", what, got)
	}
	if len(tally.order) != reuseN {
		t.Errorf("%s: %d ordered sections, want %d", what, len(tally.order), reuseN)
	}
	for i, v := range tally.order {
		if v != i {
			t.Errorf("%s: ordered section %d ran iteration %d", what, i, v)
			break
		}
	}
	tri := int64(p * (p + 1) / 2)
	if tally.sumA != tri || tally.sumB != 10*tri {
		t.Errorf("%s: typed int64 reductions %d, %d; want %d, %d", what, tally.sumA, tally.sumB, tri, 10*tri)
	}
	if tally.fA != 0.5*float64(p) || tally.fB != 0.25*float64(p) {
		t.Errorf("%s: typed float64 reductions %v, %v; want %v, %v", what, tally.fA, tally.fB, 0.5*float64(p), 0.25*float64(p))
	}
	if want := int64(p * (p - 1) / 2); tally.generic != want {
		t.Errorf("%s: generic reduction %d, want %d", what, tally.generic, want)
	}
	if got := tally.tasks.Load(); got != int64(p*reuseTasks) {
		t.Errorf("%s: %d tasks ran, want %d", what, got, p*reuseTasks)
	}
	if got := tally.taskloop.Load(); got != want {
		t.Errorf("%s: taskloop summed %d, want %d", what, got, want)
	}
}

// TestTeamReuseAcrossSizes runs back-to-back regions of sizes 4, 2, 4
// and 1, each on a pooled team after the first round. A worker leaves a
// region's team before it can take part in the next region, so a run of
// same-size top-level regions needs at most two teams: the one the last
// region ran on, and the one before, which every worker has left once
// the last region's closing barrier let the master through.
func TestTeamReuseAcrossSizes(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	teams := map[int]map[*Team]bool{}
	for round := 0; round < 25; round++ {
		for _, p := range []int{4, 2, 4, 1} {
			var tally regionTally
			var team *Team
			body := reuseBody(&tally)
			r.ParallelN(p, func(tc *ThreadCtx) {
				if tc.ThreadNum() == 0 {
					team = tc.team
				}
				body(tc)
			})
			checkTally(t, fmt.Sprintf("round %d, team of %d", round, p), p, &tally)
			if teams[p] == nil {
				teams[p] = map[*Team]bool{}
			}
			teams[p][team] = true
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	for p, seen := range teams {
		if len(seen) > 2 {
			t.Errorf("regions of %d threads ran on %d distinct teams, want at most 2", p, len(seen))
		}
	}
	if len(teams[1]) != 1 {
		t.Errorf("a team of one is its own last leaver, yet %d teams served it", len(teams[1]))
	}
}

// TestPanickedTeamIsNotReused: a region whose body panicked leaves its
// team with a cancelled barrier, so the team must never come back, and
// the regions after it must run on teams that work.
func TestPanickedTeamIsNotReused(t *testing.T) {
	r := newRT(t, Config{NumThreads: 3})
	for _, thrower := range []int{0, 2} {
		var bad *Team
		expectRegionPanic(t, "boom", func() {
			r.Parallel(func(tc *ThreadCtx) {
				if tc.ThreadNum() == 0 {
					bad = tc.team
				}
				tc.Barrier()
				if tc.ThreadNum() == thrower {
					panic("boom")
				}
			})
		})
		for k := 0; k < 20; k++ {
			var tally regionTally
			var team *Team
			body := reuseBody(&tally)
			r.Parallel(func(tc *ThreadCtx) {
				if tc.ThreadNum() == 0 {
					team = tc.team
				}
				body(tc)
			})
			checkTally(t, "after a panic", 3, &tally)
			if team == bad {
				t.Fatalf("the team of the region that panicked on thread %d was reused", thrower)
			}
		}
		r.teamMu.Lock()
		for _, pooled := range r.teamFree[3] {
			if pooled == bad {
				t.Errorf("the team of the region that panicked on thread %d is in the pool", thrower)
			}
		}
		r.teamMu.Unlock()
	}
}

// TestNestedTeamsPooled: with Config.Nested, each outer thread forks
// nested teams of three; they are pooled like top-level ones, and
// every nested region's results stay exact. A nested goroutine may
// still be between its Done and its leave when its master forks again,
// so the bound is loose: most nested regions must still find a team in
// the pool.
func TestNestedTeamsPooled(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2, Nested: true})
	const regions = 40
	var mu sync.Mutex
	seen := map[*Team]bool{}
	r.Parallel(func(outer *ThreadCtx) {
		for k := 0; k < regions; k++ {
			var tally regionTally
			var team *Team
			body := reuseBody(&tally)
			outer.Parallel(3, func(tc *ThreadCtx) {
				if tc.ThreadNum() == 0 {
					team = tc.team
				}
				body(tc)
			})
			checkTally(t, "nested team", 3, &tally)
			mu.Lock()
			seen[team] = true
			mu.Unlock()
		}
	})
	if len(seen) > regions/2 {
		t.Errorf("%d nested regions ran on %d distinct teams: nested teams are not pooled", 2*regions, len(seen))
	}
}

// TestPooledDescriptorQueries: a goroutine asks threads 0 and 1 for
// their current and parent region IDs, a round for each region started,
// while the master runs 10 000 regions on pooled teams, with and without
// true nesting. Every region rewrites the TeamInfo of the team it
// reuses, so under -race this is what checks that the rewrite and an
// asynchronous read are ordered. Each answer is ErrSequence with 0, or
// an ID no newer than the last region started. A parent ID is 0 or the
// ID of a region that nests another: here a top-level one, never a
// nested region's own ID.
func TestPooledDescriptorQueries(t *testing.T) {
	const regions = 10_000
	for _, nested := range []bool{false, true} {
		r := newRT(t, Config{NumThreads: 2, Nested: nested})
		isNested := make([]atomic.Bool, 4*regions) // by region ID
		body := func(tc *ThreadCtx) {
			if !nested {
				return
			}
			tc.Parallel(2, func(in *ThreadCtx) {
				if in.ThreadNum() == 0 {
					isNested[in.RegionID()].Store(true)
				}
			})
		}
		r.Parallel(body) // the pool

		var parents []uint64
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			q := r.Collector().NewQueue()
			for seen := uint64(0); !stop.Load(); {
				// One round per region started, so that on one P the
				// rounds cannot crowd the team out.
				last := r.regionSeq.Load()
				if last == seen {
					runtime.Gosched()
					continue
				}
				seen = last
				for th := int32(0); th < 2; th++ {
					for _, kind := range []collector.RequestKind{collector.ReqCurrentPRID, collector.ReqParentPRID} {
						id, ec := collector.QueryPRID(q, kind, th)
						last := r.regionSeq.Load()
						switch {
						case ec == collector.ErrSequence && id == 0:
						case ec == collector.ErrOK && id <= last && (id != 0 || kind == collector.ReqParentPRID):
							if kind == collector.ReqParentPRID {
								parents = append(parents, id)
							}
						default:
							t.Errorf("nested=%v: thread %d answered %v with %d (%v), %d regions started", nested, th, kind, id, ec, last)
							return
						}
					}
				}
			}
		}()
		for range regions {
			r.Parallel(body)
		}
		stop.Store(true)
		<-done

		for _, p := range parents {
			if !nested && p != 0 || isNested[p].Load() {
				t.Fatalf("nested=%v: a parent ID answered %d, a region that nests nothing", nested, p)
			}
		}
		t.Logf("nested=%v: %d parent IDs checked", nested, len(parents))
	}
}
