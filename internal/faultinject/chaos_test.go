package faultinject_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/epcc"
	"goomp/internal/faultinject"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

// parseStreamDir reads every per-thread trace file back, tolerating
// torn files (their gap-free prefix counts, the damage is expected
// under injection) and returns the total parsed samples.
func parseStreamDir(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := perf.ReadTraceStream(f)
		f.Close()
		if err != nil && !errors.Is(err, perf.ErrBadTrace) {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		total += len(buf.Samples())
	}
	return total
}

// checkAccounting asserts the exact conservation law of the
// measurement pipeline: every dispatched callback either stored a
// sample that is now on disk, in memory, or in an explicitly counted
// loss bucket — or was itself an injected panic/hang (which fires
// instead of the tool's callback).
func checkAccounting(t *testing.T, rep *tool.Report, plan *faultinject.Plan, parsed int) {
	t.Helper()
	var dispatched uint64
	for _, n := range rep.Events {
		dispatched += n
	}
	lost := uint64(plan.FiredCount(faultinject.KindPanic) + plan.FiredCount(faultinject.KindHang))
	got := uint64(parsed) + uint64(rep.Samples) + rep.Dropped +
		rep.StreamDiscardedSamples + lost
	if got != dispatched {
		t.Errorf("accounting: parsed %d + in-memory %d + dropped %d + discarded %d + faulted callbacks %d = %d, want %d dispatched",
			parsed, rep.Samples, rep.Dropped, rep.StreamDiscardedSamples,
			lost, got, dispatched)
	}
}

// TestChaosEPCCCompletesUnderInjectedFaults runs EPCC syncbench
// directives while the plan injects a callback panic and transient
// write errors. The benchmark must complete with finite results, its
// chunks must reach the stream files, every lost sample must be
// accounted for exactly, and the health report must name the injected
// panic.
func TestChaosEPCCCompletesUnderInjectedFaults(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()
	s := epcc.NewSuite(rt)
	s.InnerReps = 32
	s.OuterReps = 2
	s.DelayLength = 8

	plan := faultinject.New(42)
	plan.PanicOn(collector.EventThrEndIBar, 40)
	plan.WriteErrorRate(0.25)

	dir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = dir
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range epcc.Directives() {
		if d.Name == "PARALLEL" || d.Name == "BARRIER" || d.Name == "PARALLEL FOR" {
			res := s.Measure(d)
			if res.Time.Mean < 0 || res.Overhead < 0 {
				t.Errorf("%s: negative timing under faults: %+v", d.Name, res)
			}
		}
	}
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		// Transient errors retry to success: a resilient stream
		// reports nothing here.
		t.Errorf("stream error from recoverable faults: %v", err)
	}

	rep := tl.Report()
	parsed := parseStreamDir(t, dir)
	checkAccounting(t, rep, plan, parsed)
	// Each of the four threads' residue block holds less than a chunk,
	// so more samples than four chunks on disk means chunks streamed.
	if parsed <= 4*perf.ChunkSamples {
		t.Errorf("%d samples parsed from the stream files: no chunk ever streamed during EPCC", parsed)
	}

	if n := plan.FiredCount(faultinject.KindPanic); n != 1 {
		t.Errorf("panic fault fired %d times, want 1", n)
	}
	if rep.Health == nil || len(rep.Health.Panics) != 1 ||
		rep.Health.Panics[0].Event != collector.EventThrEndIBar {
		t.Errorf("health does not name the injected panic: %+v", rep.Health)
	}
	if wf := plan.FiredCount(faultinject.KindWriteError); wf > 0 && rep.StreamRetries == 0 {
		t.Errorf("%d write errors fired but no retries reported", wf)
	}
	if rep.StreamDiscardedSamples != 0 {
		t.Errorf("transient-only I/O faults discarded %d samples", rep.StreamDiscardedSamples)
	}
}

// TestChaosNPBEPChecksumPinnedUnderStreamFaults runs the NPB EP kernel
// under harsher storage faults — a torn write on thread 0's file and a
// permanently failing open on thread 1's — plus a callback panic. The
// kernel's verification checksum must be bit-identical to a clean run,
// losses must be exactly accounted, and the joined stream error must
// name each degraded thread.
func TestChaosNPBEPChecksumPinnedUnderStreamFaults(t *testing.T) {
	clean := omp.New(omp.Config{NumThreads: 4})
	ref := npb.RunEP(clean, npb.ClassS)
	clean.Close()
	if !ref.Verified {
		t.Fatalf("clean EP run failed verification: %v", ref)
	}

	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()
	plan := faultinject.New(7)
	plan.TearWrite(0, 0)
	plan.FailOpen(1, 1<<20)
	plan.PanicOn(collector.EventFork, 1)
	plan.WriteErrorRate(0.2)

	dir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = dir
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := npb.RunEP(rt, npb.ClassS)
	tl.Detach()

	if !res.Verified {
		t.Errorf("EP failed verification under injected faults: %v", res)
	}
	if res.CheckValue != ref.CheckValue {
		t.Errorf("EP checksum drifted under faults: %v, clean run %v",
			res.CheckValue, ref.CheckValue)
	}

	serr := tl.StreamError()
	if serr == nil {
		t.Fatal("torn write and failed opens produced no stream error")
	}
	for _, frag := range []string{"thread 0", "thread 1"} {
		if !strings.Contains(serr.Error(), frag) {
			t.Errorf("stream error does not name %s: %v", frag, serr)
		}
	}

	rep := tl.Report()
	checkAccounting(t, rep, plan, parseStreamDir(t, dir))
	if rep.DegradedThreads < 2 {
		t.Errorf("degraded threads = %d, want >= 2", rep.DegradedThreads)
	}
	if rep.Health == nil || len(rep.Health.Panics) != 1 ||
		rep.Health.Panics[0].Event != collector.EventFork {
		t.Errorf("health does not name the injected fork panic: %+v", rep.Health)
	}
	if plan.FiredCount(faultinject.KindTornWrite) != 1 {
		t.Errorf("torn-write fault fired %d times, want 1",
			plan.FiredCount(faultinject.KindTornWrite))
	}
}

// TestChaosHungCallbackDetachWithinDeadline injects a callback that
// hangs forever: Detach must still complete within its bounded wait,
// name the wedged event in the report, and salvage the other threads'
// traces through the snapshot fallback.
func TestChaosHungCallbackDetachWithinDeadline(t *testing.T) {
	rt := omp.New(omp.Config{
		NumThreads:     2,
		CallbackBudget: time.Millisecond,
		WatchdogSample: 1,
	})
	plan := faultinject.New(1)
	plan.HangOn(collector.EventJoin, 1)

	dir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = dir
	opts.DetachTimeout = 150 * time.Millisecond
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The join event's callback hangs, wedging the master inside
		// this region's join.
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}()
	// Wait until the hang has actually fired before detaching.
	for i := 0; plan.FiredCount(faultinject.KindHang) == 0; i++ {
		if i > 1000 {
			t.Fatal("hang fault never fired")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	tl.Detach()
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Detach took %v with a hung callback; the bounded wait did not bound it", d)
	}

	rep := tl.Report()
	if len(rep.Wedged) != 1 || rep.Wedged[0].Event != collector.EventJoin {
		t.Fatalf("report wedged = %+v, want OMP_EVENT_JOIN", rep.Wedged)
	}
	if rep.Wedged[0].Age <= 0 {
		t.Errorf("wedged event has no age: %+v", rep.Wedged[0])
	}
	// The fork sample that preceded the hung join survived via the
	// snapshot fallback.
	if parsed := parseStreamDir(t, dir); parsed == 0 {
		t.Error("no samples salvaged past the wedged callback")
	}

	plan.Release()
	wg.Wait()
	rt.Close()
}

// TestChaosSlowCallbackTripsBreaker injects an over-budget delay into
// a callback: the watchdog's sampled timing must trip the circuit
// breaker, pausing event generation without disturbing the
// application, and a resume request must re-arm it.
func TestChaosSlowCallbackTripsBreaker(t *testing.T) {
	rt := omp.New(omp.Config{
		NumThreads:     2,
		CallbackBudget: 500 * time.Microsecond,
		WatchdogSample: 1,
	})
	defer rt.Close()
	plan := faultinject.New(3)
	plan.DelayOn(collector.EventFork, 2, 10*time.Millisecond)

	opts := tool.FullMeasurement()
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	rep := tl.Report()
	if rep.Health == nil || len(rep.Health.Trips) == 0 {
		t.Fatal("over-budget callback did not trip the breaker")
	}
	if rep.Health.Trips[0].Event != collector.EventFork {
		t.Errorf("trip names %v, want OMP_EVENT_FORK", rep.Health.Trips[0].Event)
	}
	// The breaker paused generation after the slow dispatch.
	frozen := rep.Events[collector.EventFork]
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	if got := tl.Report().Events[collector.EventFork]; got != frozen {
		t.Errorf("events dispatched while breaker open: %d -> %d", frozen, got)
	}
	// Resume re-arms generation.
	if err := tl.Resume(); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	if got := tl.Report().Events[collector.EventFork]; got != frozen+1 {
		t.Errorf("resume did not re-arm dispatch: %d, want %d", got, frozen+1)
	}
	tl.Detach()
}

// TestChaosSeededReplayIsDeterministic runs one seeded plan against the
// same single-threaded workload twice: the fired fault records must be
// identical, making any chaos failure replayable from its seed.
func TestChaosSeededReplayIsDeterministic(t *testing.T) {
	run := func() ([]faultinject.Record, *tool.Report) {
		rt := omp.New(omp.Config{NumThreads: 1})
		defer rt.Close()
		plan := faultinject.New(99)
		plan.WriteErrorRate(0.5)
		plan.PanicOn(collector.EventJoin, 10)

		dir := t.TempDir()
		opts := tool.FullMeasurement()
		opts.StreamDir = dir
		plan.Apply(&opts)
		tl, err := tool.AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
		tl.Detach()
		rep := tl.Report()
		checkAccounting(t, rep, plan, parseStreamDir(t, dir))
		return plan.SortedFired(), rep
	}
	fired1, rep1 := run()
	fired2, rep2 := run()
	if !reflect.DeepEqual(fired1, fired2) {
		t.Errorf("same seed fired different faults:\n run1: %v\n run2: %v", fired1, fired2)
	}
	if len(fired1) == 0 {
		t.Error("seeded plan fired no faults; the replay assertion is vacuous")
	}
	if rep1.StreamRetries != rep2.StreamRetries {
		t.Errorf("reports diverged across replays: %+v vs %+v", rep1, rep2)
	}
}
