package tool_test

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

func TestAttachWithoutSymbol(t *testing.T) {
	_, err := Attach(FullMeasurement())
	if err == nil {
		t.Fatal("attach succeeded without a registered runtime")
	}
	var noCol *ErrNoCollector
	if !strings.Contains(err.Error(), collector.SymbolName) {
		t.Errorf("error %v does not name the symbol", err)
	}
	_ = noCol
}

func TestAttachViaSymbol(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	if err := rt.RegisterSymbol(); err != nil {
		t.Fatal(err)
	}
	tl, err := Attach(FullMeasurement())
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer tl.Detach()

	rt.Parallel(func(tc *omp.ThreadCtx) {})
	rep := tl.Report()
	if rep.Events[collector.EventFork] != 1 || rep.Events[collector.EventJoin] != 1 {
		t.Errorf("fork/join counts = %d/%d, want 1/1",
			rep.Events[collector.EventFork], rep.Events[collector.EventJoin])
	}
}

func TestForkJoinSamplesAndRegionTiming(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()

	const regions = 8
	for i := 0; i < regions; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {
			tc.For(100, func(int) {})
		})
	}
	rep := tl.Report()
	if rep.Events[collector.EventFork] != regions {
		t.Errorf("fork events = %d, want %d", rep.Events[collector.EventFork], regions)
	}
	if rep.Samples == 0 {
		t.Fatal("no samples stored in full-measurement mode")
	}
	// One static region called regions times is one row.
	if len(rep.Regions) != 1 || rep.Regions[0].Calls != regions {
		t.Fatalf("timed regions = %+v, want one site with %d calls", rep.Regions, regions)
	}
	if rep.Regions[0].TotalTime <= 0 {
		t.Errorf("site %#x has non-positive total time", rep.Regions[0].Site)
	}
}

func TestJoinStacksResolveToUserSites(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()

	for i := 0; i < 3; i++ {
		runRegionForStackTest(rt)
	}
	rep := tl.Report()
	if len(rep.JoinSites) == 0 {
		t.Fatal("no join sites recorded")
	}
	found := false
	for _, s := range rep.JoinSites {
		if strings.Contains(s.Leaf.Func, "runRegionForStackTest") {
			found = true
			if s.Count != 3 {
				t.Errorf("site count = %d, want 3", s.Count)
			}
		}
	}
	if !found {
		t.Errorf("user-model site not found; sites: %+v", rep.JoinSites)
	}
}

// runRegionForStackTest is the user-code frame the join-stack
// reconstruction must surface.
func runRegionForStackTest(rt *omp.RT) {
	rt.Parallel(func(tc *omp.ThreadCtx) {})
}

func TestCallbacksOnlyStoresNothing(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, CallbacksOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	for i := 0; i < 5; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	rep := tl.Report()
	if rep.Events[collector.EventFork] != 5 {
		t.Errorf("fork events = %d, want 5 (callbacks must still fire)",
			rep.Events[collector.EventFork])
	}
	if rep.Samples != 0 {
		t.Errorf("samples = %d, want 0 in callbacks-only mode", rep.Samples)
	}
}

func TestPauseResume(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()

	rt.Parallel(func(tc *omp.ThreadCtx) {})
	if err := tl.Pause(); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	if err := tl.Resume(); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(tc *omp.ThreadCtx) {})

	rep := tl.Report()
	if got := rep.Events[collector.EventFork]; got != 2 {
		t.Errorf("fork events = %d, want 2 (paused region must not notify)", got)
	}
}

func TestDetachStopsEvents(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	tl.Detach()
	tl.Detach() // idempotent
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	rep := tl.Report()
	if got := rep.Events[collector.EventFork]; got != 1 {
		t.Errorf("fork events = %d, want 1 after detach", got)
	}
	// The collector is reusable by a new tool after detach.
	tl2, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	tl2.Detach()
}

func TestStateSampler(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()
	tl, err := AttachRuntime(rt, Options{
		Measure:      true,
		SamplePeriod: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Keep threads busy long enough for the sampler to observe them.
	rt.Parallel(func(tc *omp.ThreadCtx) {
		deadline := time.Now().Add(20 * time.Millisecond)
		for time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	})
	time.Sleep(2 * time.Millisecond)
	tl.Detach()
	rep := tl.Report()
	if rep.States == nil {
		t.Fatal("no state histogram")
	}
	if rep.States.Total(0) == 0 {
		t.Error("sampler never observed the master thread")
	}
}

func TestQueryStateThroughTool(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	st, _, ec := tl.QueryState(0)
	if ec != collector.ErrOK || st != collector.StateSerial {
		t.Errorf("master state = (%v, %v), want serial", st, ec)
	}
}

func TestWriteTracesRoundTrip(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	rt.Parallel(func(tc *omp.ThreadCtx) { tc.Barrier() })

	streams := make(map[int32]*bytes.Buffer)
	err = tl.WriteTraces(func(thread int32) (w io.Writer, e error) {
		b := new(bytes.Buffer)
		streams[thread] = b
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) == 0 {
		t.Fatal("no trace streams written")
	}
	total := 0
	for id, s := range streams {
		b, err := perf.ReadTraceStream(bytes.NewReader(s.Bytes()))
		if err != nil {
			t.Fatalf("thread %d: %v", id, err)
		}
		total += len(b.Samples())
	}
	if total == 0 {
		t.Error("round-tripped traces contain no samples")
	}
}

func TestReportWriteTo(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	rt.Parallel(func(tc *omp.ThreadCtx) {})

	var buf bytes.Buffer
	if _, err := tl.Report().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"collector tool report", "OMP_EVENT_FORK", "samples stored"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBufferLimitDropsSamples(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 1})
	defer rt.Close()
	tl, err := AttachRuntime(rt, Options{Measure: true, BufferLimit: 5, BufferCap: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	for i := 0; i < 20; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	rep := tl.Report()
	if rep.Samples != 5 {
		t.Errorf("samples = %d, want 5 (limit)", rep.Samples)
	}
	if rep.Dropped == 0 {
		t.Error("no drops recorded despite exceeding the limit")
	}
}
