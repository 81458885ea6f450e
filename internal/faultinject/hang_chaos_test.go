package faultinject_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"goomp/internal/faultinject"
	"goomp/internal/mpi"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

// The hang chaos suite: inject wedges — an AB-BA lock cycle, a dropped
// mpi message, a barrier no-show — under an attached, supervised tool
// and assert the contract end to end: detection within twice the hang
// timeout, a report naming every blocked thread's wait site (and the
// cycle when there is one), and the gap-free trace prefix salvaged to
// disk with the report beside it.

const hangTimeout = 150 * time.Millisecond

// attachSupervised attaches a supervised tool whose hang reports land
// on the returned channel instead of aborting the process.
func attachSupervised(t *testing.T, rt *omp.RT, dir string) (*tool.Tool, <-chan string) {
	t.Helper()
	ch := make(chan string, 1)
	opts := tool.FullMeasurement()
	opts.HangTimeout = hangTimeout
	opts.HangDir = dir
	opts.OnHang = func(rep string) { ch <- rep }
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tl, ch
}

// awaitHang waits for the report and pins the detection-latency bound:
// the hang must be diagnosed within 2× the hang timeout of the moment
// the workload wedged.
func awaitHang(t *testing.T, ch <-chan string, wedgedAt time.Time) string {
	t.Helper()
	select {
	case rep := <-ch:
		if el := time.Since(wedgedAt); el > 2*hangTimeout {
			t.Errorf("detection took %v, want <= %v", el, 2*hangTimeout)
		}
		return rep
	case <-time.After(20 * hangTimeout):
		t.Fatal("hang never detected")
		return ""
	}
}

// checkSalvage asserts the on-disk contract: hang.report beside the
// traces holds the rendered report, and every salvaged trace file
// parses gap-free.
func checkSalvage(t *testing.T, dir, rep string) {
	t.Helper()
	if onDisk := perf.HangReport(dir); onDisk != rep {
		t.Errorf("%s holds %q, want the delivered report", perf.HangReportName, onDisk)
	}
	traces, _ := filepath.Glob(filepath.Join(dir, "trace.*.psxt"))
	if len(traces) == 0 {
		t.Fatalf("no trace files salvaged to %s", dir)
	}
	for _, path := range traces {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = perf.ReadTraceStream(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: salvaged trace does not parse cleanly: %v", filepath.Base(path), err)
		}
	}
}

// TestChaosHangABBALockCycle wedges two omp threads in the classic
// AB-BA lock cycle and asserts the deadlock verdict, the rendered
// cycle, both wait sites, and the salvage.
func TestChaosHangABBALockCycle(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	dir := t.TempDir()
	tl, ch := attachSupervised(t, rt, dir)
	defer tl.Detach()

	var a, b omp.Lock
	var held sync.WaitGroup
	held.Add(2)
	go rt.Parallel(func(tc *omp.ThreadCtx) {
		// Each thread takes its first lock, rendezvouses so both are
		// held, then blocks on the other's — a guaranteed cycle. The
		// two threads never return; the region is abandoned.
		switch tc.ThreadNum() {
		case 0:
			a.Acquire(tc)
			held.Done()
			held.Wait()
			b.Acquire(tc)
		case 1:
			b.Acquire(tc)
			held.Done()
			held.Wait()
			a.Acquire(tc)
		}
	})
	held.Wait()
	rep := awaitHang(t, ch, time.Now())

	if !strings.Contains(rep, "verdict=deadlock") {
		t.Errorf("report verdict is not deadlock:\n%s", rep)
	}
	if !strings.Contains(rep, "cycle:") {
		t.Errorf("report renders no cycle:\n%s", rep)
	}
	for _, want := range []string{"thread 0", "thread 1", "lock", "Acquire"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report does not mention %q:\n%s", want, rep)
		}
	}
	if got := tl.HangReport(); got != rep {
		t.Errorf("Tool.HangReport disagrees with the delivered report")
	}
	if !strings.Contains(renderReport(tl), "salvaged gap-free prefix") {
		t.Errorf("tool report carries no torn-prefix warning")
	}
	checkSalvage(t, dir, rep)
}

func renderReport(tl *tool.Tool) string {
	var sb strings.Builder
	tl.Report().WriteTo(&sb)
	return sb.String()
}

// TestChaosHangMPIDroppedMessage drops the one message a rank is
// waiting for and asserts the no-cycle verdict names the rank, its
// Recv filter and its wait site — then heals the world and lets it
// finish.
func TestChaosHangMPIDroppedMessage(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 1})
	defer rt.Close()
	dir := t.TempDir()
	tl, ch := attachSupervised(t, rt, dir)
	defer tl.Detach()

	plan := faultinject.New(7)
	plan.DropMessage(0, 1, 7)
	world := mpi.NewWorld(2)
	plan.ApplyWorld(world)

	comm0ch := make(chan *mpi.Comm, 1)
	got := make(chan float64, 1)
	done := make(chan struct{})
	wedged := time.Now()
	go func() {
		defer close(done)
		world.Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				c.Send(1, 7, []float64{42}) // dropped by the plan
				comm0ch <- c
			} else {
				data, _ := c.Recv(0, 7) // blocks until the re-send below
				got <- data[0]
			}
		})
	}()
	rep := awaitHang(t, ch, wedged)

	if !strings.Contains(rep, "verdict=no-progress") {
		t.Errorf("a lost message must not be called a deadlock:\n%s", rep)
	}
	for _, want := range []string{"rank 1", "message", "src=0 tag=7", "Recv"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report does not mention %q:\n%s", want, rep)
		}
	}
	if n := plan.FiredCount(faultinject.KindMsgDrop); n != 1 {
		t.Errorf("msg-drop fired %d times, want 1", n)
	}
	checkSalvage(t, dir, rep)

	// Heal: clear the fault hook and re-send, so the world drains.
	world.SetFaultHook(nil)
	(<-comm0ch).Send(1, 7, []float64{42})
	select {
	case v := <-got:
		if v != 42 {
			t.Errorf("received %v after heal, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank 1 still stuck after the message was re-sent")
	}
	<-done
}

// TestChaosHangBarrierNoShow parks one thread at an armed stall point
// while its teammates wait at the implicit barrier: blocked threads,
// no cycle. Release lets the region complete normally afterwards.
func TestChaosHangBarrierNoShow(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()
	dir := t.TempDir()
	tl, ch := attachSupervised(t, rt, dir)
	defer tl.Detach()

	plan := faultinject.New(3)
	plan.StallAt("before-barrier")
	wedged := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Parallel(func(tc *omp.ThreadCtx) {
			if tc.ThreadNum() == 0 {
				plan.Stall("before-barrier")
			}
		})
	}()
	rep := awaitHang(t, ch, wedged)

	if !strings.Contains(rep, "verdict=no-progress") {
		t.Errorf("a no-show is not a deadlock:\n%s", rep)
	}
	if !strings.Contains(rep, "barrier") {
		t.Errorf("report does not mention the barrier:\n%s", rep)
	}
	if !strings.Contains(rep, "3 thread(s) blocked") {
		t.Errorf("report does not count the three barrier waiters:\n%s", rep)
	}
	checkSalvage(t, dir, rep)

	plan.Release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("region did not complete after Release")
	}
}

// TestChaosHangNoFalsePositive oversubscribes a guided loop and its
// barriers on a 16-thread team, with every mpi delivery delayed, for
// well past the hang timeout: slow progress is progress, and the
// watchdog must stay silent.
func TestChaosHangNoFalsePositive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rt := omp.New(omp.Config{NumThreads: 16})
	defer rt.Close()
	tl, ch := attachSupervised(t, rt, t.TempDir())
	defer tl.Detach()

	plan := faultinject.New(11)
	plan.DelayMessage(faultinject.Any, faultinject.Any, faultinject.Any, hangTimeout/5)
	world := mpi.NewWorld(2)
	plan.ApplyWorld(world)

	var sink omp.AtomicFloat64
	deadline := time.Now().Add(4 * hangTimeout)
	for time.Now().Before(deadline) {
		rt.ParallelN(16, func(tc *omp.ThreadCtx) {
			tc.ForSched(2048, omp.ScheduleGuided, 1, func(lo, hi int) {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += float64(i % 7)
				}
				tc.AtomicAddFloat64(&sink, s)
			})
			tc.Barrier()
		})
		world.Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				c.Send(1, 1, []float64{1})
			} else {
				c.Recv(0, 1)
			}
			c.Barrier()
		})
	}

	select {
	case rep := <-ch:
		t.Fatalf("false positive on a live workload:\n%s", rep)
	default:
	}
	if got := tl.HangReport(); got != "" {
		t.Fatalf("HangReport nonempty on a live workload:\n%s", got)
	}
}

// TestChaosHangAbortExitsNonzero re-execs the test binary into a
// supervised AB-BA deadlock with no OnHang and asserts the whole
// process contract: stderr carries the report, the exit status is
// nonzero, and the salvage is on disk.
func TestChaosHangAbortExitsNonzero(t *testing.T) {
	if os.Getenv("GOOMP_HANG_HELPER") == "1" {
		hangAbortHelper() // exits 2 via the hang handler; never returns
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestChaosHangAbortExitsNonzero$", "-test.timeout", "60s")
	cmd.Env = append(os.Environ(), "GOOMP_HANG_HELPER=1", "GOOMP_HANG_DIR="+dir)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("subprocess err = %v (output %q), want a nonzero exit", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("subprocess exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(string(out), "HANG detected: verdict=deadlock") {
		t.Errorf("subprocess stderr carries no hang report:\n%s", out)
	}
	rep, err := os.ReadFile(filepath.Join(dir, "hang.report"))
	if err != nil {
		t.Fatalf("no salvaged hang.report: %v", err)
	}
	checkSalvage(t, dir, string(rep))
}

// hangAbortHelper is the subprocess body: a supervised AB-BA deadlock
// with no OnHang, called on the main test goroutine so the process
// truly wedges until the handler exits it.
func hangAbortHelper() {
	rt := omp.New(omp.Config{NumThreads: 2})
	opts := tool.FullMeasurement()
	opts.HangTimeout = hangTimeout
	opts.HangDir = os.Getenv("GOOMP_HANG_DIR")
	if _, err := tool.AttachRuntime(rt, opts); err != nil {
		os.Exit(3)
	}
	var a, b omp.Lock
	var held sync.WaitGroup
	held.Add(2)
	rt.Parallel(func(tc *omp.ThreadCtx) {
		switch tc.ThreadNum() {
		case 0:
			a.Acquire(tc)
			held.Done()
			held.Wait()
			b.Acquire(tc)
		case 1:
			b.Acquire(tc)
			held.Done()
			held.Wait()
			a.Acquire(tc)
		}
	})
}
