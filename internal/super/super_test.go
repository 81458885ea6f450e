package super

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startTest activates a supervisor with a channel-backed OnHang and
// returns it with a cleanup that always deactivates.
func startTest(t *testing.T, timeout time.Duration) (*Supervisor, chan *HangReport) {
	t.Helper()
	ch := make(chan *HangReport, 1)
	s, err := Start(Options{Timeout: timeout, OnHang: func(r *HangReport) { ch <- r }})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(s.Stop)
	return s, ch
}

func TestEnabledNilWhenOff(t *testing.T) {
	if Enabled() != nil {
		t.Fatal("supervisor active at test start")
	}
}

func TestStartRejectsSecond(t *testing.T) {
	s, _ := startTest(t, time.Hour)
	if _, err := Start(Options{Timeout: time.Hour, OnHang: func(*HangReport) {}}); err == nil {
		t.Fatal("second Start succeeded")
	}
	s.Stop()
	if Enabled() != nil {
		t.Fatal("still enabled after Stop")
	}
}

func TestNoFalsePositiveWithProgress(t *testing.T) {
	s, ch := startTest(t, 50*time.Millisecond)
	// A long-parked waiter, but steady progress notes: must not fire.
	tok := s.BeginWait(0, "t0", 0, Resource{Kind: ResBarrier, ID: 1}, "")
	defer s.EndWait(tok)
	deadline := time.After(300 * time.Millisecond)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.Note()
		case r := <-ch:
			t.Fatalf("fired despite progress: %s", r.Render())
		case <-deadline:
			return
		}
	}
}

func TestNoFireWithoutWaiters(t *testing.T) {
	_, ch := startTest(t, 30*time.Millisecond)
	select {
	case r := <-ch:
		t.Fatalf("fired with no waiters: %s", r.Render())
	case <-time.After(200 * time.Millisecond):
	}
}

func TestDetectsLockCycle(t *testing.T) {
	s, ch := startTest(t, 40*time.Millisecond)
	la := Resource{Kind: ResLock, ID: 0xa}
	lb := Resource{Kind: ResLock, ID: 0xb}
	s.Acquired(la, "t0")
	s.Acquired(lb, "t1")
	s.BeginWait(0, "t0", 0, lb, "THR_LKWT_STATE")
	s.BeginWait(0, "t1", 1, la, "THR_LKWT_STATE")
	select {
	case r := <-ch:
		if r.Verdict != VerdictDeadlock {
			t.Fatalf("verdict = %s, want deadlock\n%s", r.Verdict, r.Render())
		}
		if len(r.Cycle) == 0 {
			t.Fatalf("no cycle in report:\n%s", r.Render())
		}
		txt := r.Render()
		for _, want := range []string{"t0", "t1", "cycle:", "THR_LKWT_STATE", "holds"} {
			if !strings.Contains(txt, want) {
				t.Errorf("report missing %q:\n%s", want, txt)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a lock cycle")
	}
}

func TestDetectsNoProgressWithoutCycle(t *testing.T) {
	s, ch := startTest(t, 40*time.Millisecond)
	s.BeginWait(0, "mpi1 rank 0", -1, Resource{Kind: ResMsg, ID: 7, Detail: "src=1 tag=7"}, "")
	select {
	case r := <-ch:
		if r.Verdict != VerdictNoProgress {
			t.Fatalf("verdict = %s, want no-progress\n%s", r.Verdict, r.Render())
		}
		if len(r.Cycle) != 0 {
			t.Fatalf("unexpected cycle:\n%s", r.Render())
		}
		if !strings.Contains(r.Render(), "src=1 tag=7") {
			t.Errorf("report lost the resource detail:\n%s", r.Render())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired")
	}
}

func TestDetectionLatencyBound(t *testing.T) {
	const timeout = 80 * time.Millisecond
	s, ch := startTest(t, timeout)
	start := time.Now()
	s.BeginWait(0, "t0", 0, Resource{Kind: ResMPIBar, ID: 1}, "")
	select {
	case <-ch:
		if d := time.Since(start); d > 2*timeout {
			t.Fatalf("detection took %v, want <= %v", d, 2*timeout)
		}
	case <-time.After(2 * timeout):
		t.Fatalf("not detected within 2x timeout")
	}
}

func TestEndWaitClearsRecord(t *testing.T) {
	s, ch := startTest(t, 40*time.Millisecond)
	tok := s.BeginWait(0, "t0", 0, Resource{Kind: ResLock, ID: 1}, "")
	s.EndWait(tok)
	select {
	case r := <-ch:
		t.Fatalf("fired after wait cleared: %s", r.Render())
	case <-time.After(200 * time.Millisecond):
	}
	if n := len(s.SnapshotWaits()); n != 0 {
		t.Fatalf("SnapshotWaits has %d records after EndWait", n)
	}
}

func TestReleasedClearsOwnership(t *testing.T) {
	s, _ := startTest(t, time.Hour)
	r := Resource{Kind: ResCrit, ID: 5, Detail: `critical "upd"`}
	s.Acquired(r, "t0")
	s.Released(r)
	s.BeginWait(0, "t1", 1, r, "")
	rep := s.buildReport(time.Second)
	if rep.Verdict != VerdictNoProgress {
		t.Fatalf("released lock still forms edges: %s", rep.Render())
	}
}

func TestSnapshotOrderAndFields(t *testing.T) {
	s, _ := startTest(t, time.Hour)
	s.BeginWait(0, "a", 0, Resource{Kind: ResBarrier, ID: 1}, "THR_IBAR_STATE")
	time.Sleep(5 * time.Millisecond)
	s.BeginWait(0, "b", 1, Resource{Kind: ResBarrier, ID: 1}, "THR_IBAR_STATE")
	ws := s.SnapshotWaits()
	if len(ws) != 2 || ws[0].Who != "a" || ws[1].Who != "b" {
		t.Fatalf("snapshot order wrong: %+v", ws)
	}
	if ws[0].Site == "" || ws[0].Site == "unknown" {
		t.Fatalf("no park site captured: %+v", ws[0])
	}
}

func TestOnHangRunsOnce(t *testing.T) {
	var n atomic.Int32
	s, err := Start(Options{Timeout: 30 * time.Millisecond,
		OnHang: func(*HangReport) { n.Add(1) }})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Stop()
	s.BeginWait(0, "t0", 0, Resource{Kind: ResLock, ID: 1}, "")
	time.Sleep(300 * time.Millisecond)
	if got := n.Load(); got != 1 {
		t.Fatalf("OnHang ran %d times", got)
	}
	if !s.Fired() {
		t.Fatal("Fired() false after firing")
	}
}

func TestThreeWayCycle(t *testing.T) {
	s, _ := startTest(t, time.Hour)
	r0 := Resource{Kind: ResLock, ID: 0}
	r1 := Resource{Kind: ResLock, ID: 1}
	r2 := Resource{Kind: ResLock, ID: 2}
	s.Acquired(r0, "t0")
	s.Acquired(r1, "t1")
	s.Acquired(r2, "t2")
	s.BeginWait(0, "t0", 0, r1, "")
	s.BeginWait(0, "t1", 1, r2, "")
	s.BeginWait(0, "t2", 2, r0, "")
	rep := s.buildReport(time.Second)
	if rep.Verdict != VerdictDeadlock {
		t.Fatalf("three-way cycle missed: %s", rep.Render())
	}
	// Cycle renders as who [res] who [res] who [res] who: 7 elements.
	if len(rep.Cycle) != 7 {
		t.Fatalf("cycle has %d elements, want 7: %v", len(rep.Cycle), rep.Cycle)
	}
}
