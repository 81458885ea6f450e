package collector

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEventCountUnboundDescriptor: a descriptor is counted from its
// first dispatch, whether or not it was ever bound.
func TestEventCountUnboundDescriptor(t *testing.T) {
	c, q := startCollector(t)
	Register(q, EventThrBeginTask, c.NewCallbackHandle(func(Event, *ThreadInfo) {}))
	ti := NewThreadInfo(7)
	for i := 0; i < 5; i++ {
		c.Event(ti, EventThrBeginTask)
	}
	if got := c.EventCount(EventThrBeginTask); got != 5 {
		t.Fatalf("EventCount = %d, want 5 from a descriptor never bound", got)
	}
}

// TestEventCountAcrossMasterRebind: the master dispatches on its serial
// descriptor outside a region and on its parallel one inside, both
// thread 0, rebinding between them at every fork and join; the counts
// are the sum over both.
func TestEventCountAcrossMasterRebind(t *testing.T) {
	c, q := startCollector(t)
	h := c.NewCallbackHandle(func(Event, *ThreadInfo) {})
	for _, e := range []Event{EventFork, EventJoin, EventThrBeginIBar} {
		Register(q, e, h)
	}
	serial, parallel := NewThreadInfo(0), NewThreadInfo(0)
	c.BindThread(serial)
	const regions = 10
	for i := 0; i < regions; i++ {
		c.Event(serial, EventFork)
		c.BindThread(parallel)
		c.Event(parallel, EventThrBeginIBar)
		c.Event(parallel, EventJoin)
		c.BindThread(serial)
	}
	for e, want := range map[Event]uint64{EventFork: regions, EventJoin: regions, EventThrBeginIBar: regions} {
		if got := c.EventCount(e); got != want {
			t.Errorf("EventCount(%s) = %d, want %d", e, got, want)
		}
	}
}

// TestNestedDispatchNamesInnermost: a callback that dispatches again on
// its own thread is in flight twice; the slot names the inner event
// while it runs and the outer one again once it has returned.
func TestNestedDispatchNamesInnermost(t *testing.T) {
	c, q := startCollector(t)
	ti := NewThreadInfo(0)
	var inner, outer []WedgedEvent
	Register(q, EventThrEndTask, c.NewCallbackHandle(func(Event, *ThreadInfo) {
		inner = c.wedgedNow()
	}))
	Register(q, EventThrBeginTask, c.NewCallbackHandle(func(_ Event, ti *ThreadInfo) {
		c.Event(ti, EventThrEndTask)
		outer = c.wedgedNow()
	}))
	c.Event(ti, EventThrBeginTask)
	if len(inner) != 1 || inner[0].Event != EventThrEndTask {
		t.Errorf("inside the inner callback: %v, want %s", inner, EventThrEndTask)
	}
	if len(outer) != 1 || outer[0].Event != EventThrBeginTask {
		t.Errorf("back in the outer callback: %v, want %s", outer, EventThrBeginTask)
	}
	if !c.quiescent() {
		t.Error("not quiescent after both dispatches returned")
	}
}

// TestQuiesceManyDescriptors: 64 threads, each on its own descriptor,
// dispatch continuously while the event is unregistered and Quiesce
// runs; once Quiesce returns no callback may be running or start.
// Run it at -race -cpu 1,2,4.
func TestQuiesceManyDescriptors(t *testing.T) {
	c, q := startCollector(t)
	var running, calls atomic.Int64
	h := c.NewCallbackHandle(func(Event, *ThreadInfo) {
		running.Add(1)
		runtime.Gosched()
		running.Add(-1)
		calls.Add(1)
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(ti *ThreadInfo) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Event(ti, EventThrBeginIBar)
					runtime.Gosched()
				}
			}
		}(NewThreadInfo(int32(i)))
	}
	for round := 0; round < 8; round++ {
		Register(q, EventThrBeginIBar, h)
		for before := calls.Load(); calls.Load() < before+64 || len(*c.dispatchers.Load()) < 64; {
			runtime.Gosched() // until every thread has dispatched once
		}
		Unregister(q, EventThrBeginIBar)
		c.Quiesce()
		if n := running.Load(); n != 0 {
			t.Fatalf("round %d: %d callbacks running after Quiesce", round, n)
		}
		after := calls.Load()
		runtime.Gosched()
		if n := calls.Load(); n != after {
			t.Fatalf("round %d: %d callbacks ran after Quiesce", round, n-after)
		}
	}
	close(stop)
	wg.Wait()
}
