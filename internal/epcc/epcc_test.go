package epcc

import (
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

func smallSuite(t *testing.T, threads int) *Suite {
	t.Helper()
	rt := omp.New(omp.Config{NumThreads: threads})
	t.Cleanup(rt.Close)
	s := NewSuite(rt)
	s.InnerReps = 16
	s.OuterReps = 2
	s.DelayLength = 8
	return s
}

func TestDelayNonTrivial(t *testing.T) {
	if Delay(100) == 0 {
		t.Error("delay result is zero; the loop may be eliminated")
	}
	if Delay(0) != 0 {
		t.Error("zero-length delay should be zero")
	}
}

func TestComputeStats(t *testing.T) {
	xs := []time.Duration{10, 20, 30}
	st := computeStats(xs)
	if st.Mean != 20 || st.Min != 10 || st.Max != 30 || st.N != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.SD != 10 {
		t.Errorf("sd = %v, want 10", st.SD)
	}
	if z := computeStats(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty stats = %+v", z)
	}
	one := computeStats([]time.Duration{7})
	if one.SD != 0 || one.Mean != 7 {
		t.Errorf("single stats = %+v", one)
	}
}

func TestEveryDirectiveRuns(t *testing.T) {
	s := smallSuite(t, 3)
	for _, d := range Directives() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			res := s.Measure(d)
			if res.Directive != d.Name {
				t.Errorf("result directive = %q", res.Directive)
			}
			if res.Threads != 3 {
				t.Errorf("threads = %d, want 3", res.Threads)
			}
			if res.Time.Mean <= 0 {
				t.Errorf("non-positive mean time %v", res.Time.Mean)
			}
			if res.Overhead < 0 {
				t.Errorf("negative overhead %v", res.Overhead)
			}
		})
	}
}

func TestMeasureAllCoversSuite(t *testing.T) {
	s := smallSuite(t, 2)
	res := s.MeasureAll()
	if len(res) != len(Directives()) {
		t.Fatalf("got %d results, want %d", len(res), len(Directives()))
	}
	for i, d := range Directives() {
		if res[i].Directive != d.Name {
			t.Errorf("result %d is %q, want %q", i, res[i].Directive, d.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	d, err := Lookup("BARRIER")
	if err != nil || d.Name != "BARRIER" {
		t.Errorf("lookup barrier: %v, %v", d.Name, err)
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Error("lookup of unknown directive succeeded")
	}
}

func TestDirectiveRegionCounts(t *testing.T) {
	// The PARALLEL directive must invoke one region per inner rep —
	// the property Figures 4-6 lean on (overhead scales with region
	// invocations).
	s := smallSuite(t, 2)
	s.RT.ResetStats()
	runParallel(s)
	if got := s.RT.RegionCalls(); got != uint64(s.InnerReps) {
		t.Errorf("region calls = %d, want %d", got, s.InnerReps)
	}
}

func TestMeasureScheduleAllKinds(t *testing.T) {
	s := smallSuite(t, 2)
	for _, sched := range []omp.Schedule{omp.ScheduleStatic, omp.ScheduleDynamic, omp.ScheduleGuided} {
		res := s.MeasureSchedule(sched, 4, 8)
		if res.Time.Mean <= 0 {
			t.Errorf("%v: non-positive time", sched)
		}
		if res.PerIteration <= 0 {
			t.Errorf("%v: non-positive per-iteration time", sched)
		}
	}
}

func TestMeasureSchedulesSweep(t *testing.T) {
	s := smallSuite(t, 2)
	s.OuterReps = 1
	out := s.MeasureSchedules(4)
	want := 3 * len(SchedChunks)
	if len(out) != want {
		t.Fatalf("sweep produced %d results, want %d", len(out), want)
	}
}

func TestEventsFlowDuringDirectives(t *testing.T) {
	// Sanity: running the barrier directive under an attached tool
	// produces implicit/explicit barrier event notifications.
	s := smallSuite(t, 2)
	tl, err := tool.AttachRuntime(s.RT, tool.Options{
		Measure: true,
		Events: []collector.Event{
			collector.EventFork, collector.EventJoin,
			collector.EventThrBeginEBar, collector.EventThrEndEBar,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	runBarrier(s)
	rep := tl.Report()
	wantEbar := uint64(2 * s.InnerReps) // 2 threads × InnerReps barriers
	if got := rep.Events[collector.EventThrBeginEBar]; got != wantEbar {
		t.Errorf("explicit barrier events = %d, want %d", got, wantEbar)
	}
}
