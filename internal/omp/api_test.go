package omp

import (
	"testing"
	"time"

	"goomp/internal/perf"
)

func TestGetWtime(t *testing.T) {
	a := GetWtime()
	time.Sleep(2 * time.Millisecond)
	b := GetWtime()
	if b <= a {
		t.Errorf("wtime not advancing: %v -> %v", a, b)
	}
	if b-a < 0.001 || b-a > 1 {
		t.Errorf("elapsed %v seconds, want ~0.002", b-a)
	}
	if GetWtick() != perf.ClockQuantum.Seconds() {
		t.Errorf("wtick = %v, want the counter's quantum %v", GetWtick(), perf.ClockQuantum)
	}
}

func TestSetNumThreads(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	if r.MaxThreads() != 2 {
		t.Errorf("MaxThreads = %d", r.MaxThreads())
	}
	r.SetNumThreads(5)
	if r.MaxThreads() != 5 {
		t.Errorf("MaxThreads after set = %d", r.MaxThreads())
	}
	var count int
	var mu Lock
	r.Parallel(func(tc *ThreadCtx) {
		mu.Acquire(tc)
		count++
		mu.Release()
	})
	if count != 5 {
		t.Errorf("region ran %d threads, want 5", count)
	}
	r.SetNumThreads(0) // invalid: ignored
	if r.MaxThreads() != 5 {
		t.Error("invalid SetNumThreads changed the ICV")
	}
}

func TestSetSchedule(t *testing.T) {
	r := newRT(t, Config{NumThreads: 3})
	r.SetSchedule(ScheduleGuided, 4)
	s, c := r.GetSchedule()
	if s != ScheduleGuided || c != 4 {
		t.Errorf("schedule = (%v, %d)", s, c)
	}
	counts := make([]int32, 100)
	r.Parallel(func(tc *ThreadCtx) {
		tc.ForSched(100, ScheduleRuntime, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i]++
			}
		})
	})
	for i, v := range counts {
		if v != 1 {
			t.Fatalf("iteration %d ran %d times", i, v)
		}
	}
	r.SetSchedule(ScheduleStatic, 0) // chunk clamps to 1
	if _, c := r.GetSchedule(); c != 1 {
		t.Errorf("chunk = %d, want clamp to 1", c)
	}
}

func TestInParallelAndLevel(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	r.Parallel(func(tc *ThreadCtx) {
		if !tc.InParallel() {
			t.Error("InParallel false inside a 2-thread region")
		}
		if tc.Level() != 1 {
			t.Errorf("level = %d, want 1", tc.Level())
		}
		tc.Parallel(1, func(in *ThreadCtx) {
			if in.InParallel() {
				t.Error("InParallel true in a serialized team of one")
			}
			if in.Level() != 2 {
				t.Errorf("nested level = %d, want 2", in.Level())
			}
		})
	})
}

func TestAncestryAcrossNesting(t *testing.T) {
	r := newRT(t, Config{NumThreads: 3, Nested: true})
	r.Parallel(func(tc *ThreadCtx) {
		if tc.ThreadNum() != 1 {
			return
		}
		tc.Parallel(2, func(in *ThreadCtx) {
			if got := in.AncestorThreadNum(1); got != 1 {
				t.Errorf("ancestor at level 1 = %d, want 1", got)
			}
			if got := in.AncestorThreadNum(2); got != in.ThreadNum() {
				t.Errorf("ancestor at own level = %d, want %d", got, in.ThreadNum())
			}
			if got := in.AncestorThreadNum(0); got != 0 {
				t.Errorf("ancestor at level 0 = %d, want 0 (initial thread)", got)
			}
			if got := in.AncestorThreadNum(9); got != -1 {
				t.Errorf("ancestor at absent level = %d, want -1", got)
			}
			if got := in.TeamSize(1); got != 3 {
				t.Errorf("team size at level 1 = %d, want 3", got)
			}
			if got := in.TeamSize(2); got != 2 {
				t.Errorf("team size at level 2 = %d, want 2", got)
			}
			if got := in.TeamSize(0); got != 1 {
				t.Errorf("team size at level 0 = %d, want 1", got)
			}
			if got := in.TeamSize(9); got != -1 {
				t.Errorf("team size at absent level = %d, want -1", got)
			}
		})
	})
}

func TestLevelInsideTask(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	r.Parallel(func(tc *ThreadCtx) {
		tc.Master(func() {
			tc.Task(func(in *ThreadCtx) {
				if in.Level() != 1 {
					t.Errorf("task context level = %d, want 1", in.Level())
				}
			})
			tc.Taskwait()
		})
	})
}
