package omp

import (
	"time"

	"goomp/internal/perf"
)

// The OpenMP user-level library routines (omp_* functions): the part
// of the API application code calls directly, as opposed to the
// compiler-generated runtime calls. Routines that depend on the
// calling thread are methods on ThreadCtx (Go has no thread-local
// storage to infer the caller); process-wide routines are methods on
// RT.

// GetWtime returns elapsed wall-clock time in seconds from a
// process-local epoch (omp_get_wtime).
func GetWtime() float64 {
	return float64(perf.Cycles()) / float64(time.Second)
}

// GetWtick returns the timer resolution in seconds (omp_get_wtick):
// the counter's quantum, to which every reading GetWtime takes is
// rounded.
func GetWtick() float64 { return perf.ClockQuantum.Seconds() }

// MaxThreads returns the value a parallel region without an explicit
// team size would use (omp_get_max_threads).
func (r *RT) MaxThreads() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.NumThreads
}

// SetNumThreads changes the default team size for subsequent parallel
// regions (omp_set_num_threads). It must be called from serial
// context.
func (r *RT) SetNumThreads(n int) {
	if n < 1 {
		return
	}
	r.mu.Lock()
	r.cfg.NumThreads = n
	r.mu.Unlock()
}

// GetSchedule returns the runtime-schedule ICVs (omp_get_schedule).
func (r *RT) GetSchedule() (Schedule, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.Schedule, r.cfg.Chunk
}

// SetSchedule changes the runtime-schedule ICVs consulted by
// ScheduleRuntime loops (omp_set_schedule).
func (r *RT) SetSchedule(s Schedule, chunk int) {
	if chunk < 1 {
		chunk = 1
	}
	r.mu.Lock()
	r.cfg.Schedule = s
	r.cfg.Chunk = chunk
	r.mu.Unlock()
}

// InParallel reports whether the context is inside an active parallel
// region with more than one thread (omp_in_parallel).
func (tc *ThreadCtx) InParallel() bool { return tc.team.size > 1 }

// Level returns the nesting depth of active parallel regions enclosing
// the context, counting the outermost as 1 (omp_get_level counts all
// regions; serialized nested regions count too, as OpenMP specifies).
func (tc *ThreadCtx) Level() int { return tc.level }

// AncestorThreadNum returns the thread number of this context's
// ancestor at the given level (omp_get_ancestor_thread_num): level
// equal to Level() is the thread itself; 0 is the initial thread.
// It returns -1 for a level that does not exist.
func (tc *ThreadCtx) AncestorThreadNum(level int) int {
	cur := tc
	for cur != nil {
		if cur.level == level {
			return cur.id
		}
		cur = cur.parent
	}
	if level == 0 {
		return 0
	}
	return -1
}

// TeamSize returns the team size at an enclosing level
// (omp_get_team_size), or -1 if the level does not exist.
func (tc *ThreadCtx) TeamSize(level int) int {
	cur := tc
	for cur != nil {
		if cur.level == level {
			return cur.team.size
		}
		cur = cur.parent
	}
	if level == 0 {
		return 1
	}
	return -1
}
