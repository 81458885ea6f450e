package epcc

import (
	"testing"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

// TestStealHalvesZipfCriticalPath pins the machine-independent result
// of the irregular schedbench: under the virtual-time gate, on eight
// threads and 1024 iterations of chunk 1, the work-stealing schedule's
// critical path on zipf-skewed work is at most half the dynamic
// schedule's (2666 units dynamic, 1024 steal — the heaviest single
// iteration, which no assignment can beat), while on uniform work both
// reach the balanced 1024. A callbacks-only tool is attached so the
// collector tallies the steal events the zipf run generates.
func TestStealHalvesZipfCriticalPath(t *testing.T) {
	const threads, iters, wmax = 8, 1024, 1024
	rt := omp.New(omp.Config{NumThreads: threads})
	defer rt.Close()
	tl, err := tool.AttachRuntime(rt, tool.CallbacksOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	col := rt.Collector()
	s := NewSuite(rt)
	s.OuterReps = 3

	measure := func(work []int) (dynamic, steal SchedWorkResult, steals uint64) {
		dynamic = s.MeasureScheduleWork(omp.ScheduleDynamic, 1, work)
		before := col.EventCount(collector.EventChunkSteal)
		steal = s.MeasureScheduleWork(omp.ScheduleSteal, 1, work)
		steals = col.EventCount(collector.EventChunkSteal) - before
		if dynamic.TotalUnits != steal.TotalUnits {
			t.Errorf("total units differ across schedules: dynamic %d, steal %d",
				dynamic.TotalUnits, steal.TotalUnits)
		}
		return
	}

	dyn, stl, steals := measure(ZipfWork(iters, 1.25, wmax))
	t.Logf("zipf: dynamic %.0f units, steal %.0f units, %d chunk steals",
		dyn.CriticalPathUnits, stl.CriticalPathUnits, steals)
	if stl.CriticalPathUnits < wmax {
		t.Errorf("zipf steal critical path %.0f is below the heaviest iteration (%d)",
			stl.CriticalPathUnits, wmax)
	}
	if stl.CriticalPathUnits > dyn.CriticalPathUnits/2 {
		t.Errorf("zipf steal critical path %.0f is more than half of dynamic's %.0f",
			stl.CriticalPathUnits, dyn.CriticalPathUnits)
	}
	if steals == 0 {
		t.Error("zipf steal run raised no EventChunkSteal")
	}

	dyn, stl, _ = measure(UniformWork(iters, 8))
	const balanced = iters * 8 / threads
	if dyn.CriticalPathUnits != balanced || stl.CriticalPathUnits != balanced {
		t.Errorf("uniform critical path: dynamic %.0f, steal %.0f, want %d under both",
			dyn.CriticalPathUnits, stl.CriticalPathUnits, balanced)
	}
}
