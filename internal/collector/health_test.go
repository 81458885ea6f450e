package collector

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// attachCallback starts the collector and registers cb for e through
// the wire protocol, returning the queue for further requests.
func attachCallback(t *testing.T, c *Collector, e Event, cb Callback) *Queue {
	t.Helper()
	q := c.NewQueue()
	if ec := Control(q, ReqStart); ec != ErrOK {
		t.Fatalf("start: %v", ec)
	}
	h := c.NewCallbackHandle(cb)
	if ec := Register(q, e, h); ec != ErrOK {
		t.Fatalf("register: %v", ec)
	}
	return q
}

func TestPanicContainment(t *testing.T) {
	c := New()
	ti := NewThreadInfo(0)
	c.BindThread(ti)
	calls := 0
	attachCallback(t, c, EventFork, func(e Event, _ *ThreadInfo) {
		calls++
		panic("injected tool bug")
	})

	// The panic must not unwind into the dispatching (application)
	// thread.
	func() {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("callback panic escaped into the dispatcher: %v", v)
			}
		}()
		c.Event(ti, EventFork)
	}()
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}

	// The offending callback was auto-unregistered: further events are
	// not delivered.
	if c.Registered(EventFork) {
		t.Error("panicking callback still registered")
	}
	c.Event(ti, EventFork)
	if calls != 1 {
		t.Errorf("unregistered callback still invoked (calls=%d)", calls)
	}

	h := c.Health()
	if h.Healthy() {
		t.Fatal("health reports healthy after a contained panic")
	}
	if len(h.Panics) != 1 || h.Panics[0].Event != EventFork || h.Panics[0].Count != 1 {
		t.Fatalf("panic record = %+v", h.Panics)
	}
	if !strings.Contains(h.Panics[0].Last, "injected tool bug") {
		t.Errorf("panic record lost the value: %q", h.Panics[0].Last)
	}
	if !h.Panics[0].Unregistered {
		t.Error("panic record does not mark the callback unregistered")
	}
	if !strings.Contains(h.String(), "OMP_EVENT_FORK") {
		t.Errorf("health string does not name the event: %q", h.String())
	}
}

func TestPanicContainmentCountsRepeats(t *testing.T) {
	c := New()
	ti := NewThreadInfo(0)
	c.BindThread(ti)
	q := attachCallback(t, c, EventJoin, func(e Event, _ *ThreadInfo) {
		panic("again")
	})
	c.Event(ti, EventJoin)
	// Re-register the same buggy callback (a tool retrying): the second
	// panic increments the same record.
	h := c.NewCallbackHandle(func(e Event, _ *ThreadInfo) { panic("again") })
	if ec := Register(q, EventJoin, h); ec != ErrOK {
		t.Fatalf("re-register: %v", ec)
	}
	c.Event(ti, EventJoin)
	hr := c.Health()
	if len(hr.Panics) != 1 || hr.Panics[0].Count != 2 {
		t.Fatalf("panic records = %+v, want one record with count 2", hr.Panics)
	}
}

func TestWatchdogBreakerTripsAndPauses(t *testing.T) {
	c := New(WithCallbackBudget(time.Millisecond), WithWatchdogSampling(1))
	ti := NewThreadInfo(0)
	c.BindThread(ti)
	attachCallback(t, c, EventFork, func(e Event, _ *ThreadInfo) {
		time.Sleep(5 * time.Millisecond)
	})

	c.Event(ti, EventFork)
	if !c.BreakerTripped() {
		t.Fatal("over-budget callback did not trip the breaker")
	}
	if !c.Paused() {
		t.Fatal("breaker trip did not pause event generation")
	}
	h := c.Health()
	if len(h.Trips) != 1 || h.Trips[0].Event != EventFork {
		t.Fatalf("trips = %+v", h.Trips)
	}
	if h.Trips[0].Elapsed < time.Millisecond {
		t.Errorf("recorded elapsed %v below budget", h.Trips[0].Elapsed)
	}

	// Paused means no further dispatch: the callback count freezes.
	before := c.EventCount(EventFork)
	c.Event(ti, EventFork)
	if got := c.EventCount(EventFork); got != before {
		t.Errorf("events dispatched while breaker open: %d -> %d", before, got)
	}

	// The ReqResume machinery re-arms generation after the operator
	// (or tool) decides to continue.
	if ec := Control(c.NewQueue(), ReqResume); ec != ErrOK {
		t.Fatalf("resume: %v", ec)
	}
	if c.Paused() {
		t.Error("resume did not clear the breaker pause")
	}
}

func TestWatchdogSamplingSkipsUntimedDispatches(t *testing.T) {
	// Budget armed with a 4-dispatch sampling interval: only counts
	// masking to zero are timed, so a slow callback on an unsampled
	// dispatch does not trip the breaker.
	c := New(WithCallbackBudget(time.Millisecond), WithWatchdogSampling(4))
	ti := NewThreadInfo(0)
	c.BindThread(ti)
	slow := false
	attachCallback(t, c, EventFork, func(e Event, _ *ThreadInfo) {
		if slow {
			time.Sleep(3 * time.Millisecond)
		}
	})
	c.Event(ti, EventFork) // count 1, untimed
	slow = true
	c.Event(ti, EventFork) // count 2, untimed: slow but unsampled
	c.Event(ti, EventFork) // count 3, untimed
	if c.BreakerTripped() {
		t.Fatal("breaker tripped on an unsampled dispatch")
	}
	c.Event(ti, EventFork) // count 4, sampled: trips
	if !c.BreakerTripped() {
		t.Fatal("sampled over-budget dispatch did not trip the breaker")
	}
}

func TestQuiesceWithinReportsWedgedEvent(t *testing.T) {
	c := New(WithCallbackBudget(time.Millisecond), WithWatchdogSampling(1))
	ti := NewThreadInfo(0)
	c.BindThread(ti)
	release := make(chan struct{})
	entered := make(chan struct{})
	attachCallback(t, c, EventThrBeginIBar, func(e Event, _ *ThreadInfo) {
		close(entered)
		<-release
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Event(ti, EventThrBeginIBar)
	}()
	<-entered

	ok, wedged := c.QuiesceWithin(20 * time.Millisecond)
	if ok {
		t.Fatal("QuiesceWithin reported quiescence with a hung callback")
	}
	if len(wedged) != 1 || wedged[0].Event != EventThrBeginIBar {
		t.Fatalf("wedged = %+v, want THR_BEGIN_IBAR", wedged)
	}
	if wedged[0].Age <= 0 {
		t.Errorf("wedged age not recorded: %+v", wedged[0])
	}
	// Health sees the wedge too while the callback is stuck.
	if h := c.Health(); len(h.Wedged) != 1 {
		t.Errorf("health wedged = %+v", h.Wedged)
	}

	close(release)
	wg.Wait()
	if ok, wedged := c.QuiesceWithin(time.Second); !ok {
		t.Fatalf("still wedged after release: %+v", wedged)
	}
	c.Quiesce() // and the unbounded variant agrees
}

func TestQuiesceWithinQuickWhenIdle(t *testing.T) {
	c := New()
	start := time.Now()
	if ok, _ := c.QuiesceWithin(time.Second); !ok {
		t.Fatal("idle collector not quiescent")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("idle quiesce took %v", d)
	}
}

func TestHealthSnapshotIsolated(t *testing.T) {
	// The returned snapshot is a copy: mutating it does not corrupt
	// the collector's record.
	c := New()
	ti := NewThreadInfo(0)
	c.BindThread(ti)
	attachCallback(t, c, EventFork, func(Event, *ThreadInfo) { panic("x") })
	c.Event(ti, EventFork)
	h := c.Health()
	h.Panics[0].Count = 99
	h.Trips = append(h.Trips, BreakerTrip{Event: EventJoin})
	if h2 := c.Health(); h2.Panics[0].Count != 1 || len(h2.Trips) != 0 {
		t.Errorf("snapshot mutation leaked into collector state: %+v", h2)
	}
}
