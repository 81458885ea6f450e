package collector

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wireReqs builds a terminated wire buffer holding one payload-free
// entry per kind and parses it, so SetError writes are observable in
// the returned buffer.
func wireReqs(t *testing.T, kinds ...RequestKind) ([]Request, []byte) {
	t.Helper()
	var buf []byte
	for _, k := range kinds {
		buf, _ = AppendRequest(buf, k, 0)
	}
	buf = Terminate(buf)
	reqs, err := ParseRequests(buf)
	if err != nil {
		t.Fatal(err)
	}
	return reqs, buf
}

// TestSubmitReentrantNoDeadlock is the regression test for the
// re-entrant self-deadlock: request processing that submits to its own
// queue must not block on the queue lock. The inner submit hands its
// entries to the active drain loop and returns 0; they complete — with
// error codes written through to the wire entries — before the
// outermost SubmitRequests returns.
func TestSubmitReentrantNoDeadlock(t *testing.T) {
	c := New()
	q := c.NewQueue()

	outer, _ := wireReqs(t, ReqStart, ReqPause)
	inner, innerBuf := wireReqs(t, ReqResume)

	real := q.process
	reentered := false
	q.process = func(r *Request) ErrorCode {
		if r.Kind == ReqStart && !reentered {
			reentered = true
			if got := q.SubmitRequests(inner); got != 0 {
				t.Errorf("re-entrant submit returned %d, want 0 (hand-off)", got)
			}
		}
		return real(r)
	}

	done := make(chan int, 1)
	go func() { done <- q.SubmitRequests(outer) }()
	var ok int
	select {
	case ok = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("re-entrant SubmitRequests deadlocked")
	}
	// start, pause, then the handed-off resume: all three succeed.
	if ok != 3 {
		t.Errorf("outer submit completed %d requests, want 3", ok)
	}
	got, err := ParseRequests(innerBuf)
	if err != nil || len(got) != 1 {
		t.Fatalf("re-parse inner buffer: %v", err)
	}
	if got[0].EC != ErrOK {
		t.Errorf("handed-off entry EC = %v, want %v (not written back)", got[0].EC, ErrOK)
	}
}

// TestSubmitReleasesBacking checks that a drained queue does not pin
// request payload buffers through the retained pending backing array.
func TestSubmitReleasesBacking(t *testing.T) {
	c := New()
	q := c.NewQueue()
	reqs, _ := wireReqs(t, ReqStart, ReqPause, ReqResume)
	if got := q.SubmitRequests(reqs); got != 3 {
		t.Fatalf("submit: %d completed, want 3", got)
	}
	if len(q.pending) != 0 || q.head != 0 || q.draining {
		t.Fatalf("queue not reset: len=%d head=%d draining=%v",
			len(q.pending), q.head, q.draining)
	}
	backing := q.pending[:cap(q.pending)]
	for i := range backing {
		if backing[i].Mem != nil || backing[i].buf != nil {
			t.Errorf("pending slot %d still pins a wire buffer", i)
		}
	}
}

// TestSubmitConcurrentSharedQueue hammers one shared (global-queue
// style) queue from many goroutines. Hand-offs mean individual calls
// may return 0, but every entry must be processed exactly once by the
// time all submitters have returned.
func TestSubmitConcurrentSharedQueue(t *testing.T) {
	c := New(WithGlobalQueue())
	q := c.NewQueue()

	var processed atomic.Int64
	real := q.process
	q.process = func(r *Request) ErrorCode {
		processed.Add(1)
		return real(r)
	}

	const goroutines, batches = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				reqs, _ := wireReqs(t, ReqPause, ReqResume)
				q.SubmitRequests(reqs)
			}
		}()
	}
	wg.Wait()
	// The last active drain loop cannot return to its caller until the
	// queue is empty, so after wg.Wait everything has been processed.
	if got := processed.Load(); got != goroutines*batches*2 {
		t.Errorf("processed %d entries, want %d", got, goroutines*batches*2)
	}
	if len(q.pending) != 0 || q.draining {
		t.Errorf("queue left non-empty: len=%d draining=%v", len(q.pending), q.draining)
	}
}

// TestQuiesceWaitsForCallback checks the detach ordering guarantee:
// after unregistering, Quiesce must not return while a dispatched
// callback is still executing.
func TestQuiesceWaitsForCallback(t *testing.T) {
	c, q := startCollector(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	h := c.NewCallbackHandle(func(e Event, ti *ThreadInfo) {
		close(entered)
		<-release
	})
	if ec := Register(q, EventFork, h); ec != ErrOK {
		t.Fatalf("register: %v", ec)
	}
	ti := NewThreadInfo(0)
	c.BindThread(ti)

	go c.Event(ti, EventFork)
	<-entered
	if ec := Unregister(q, EventFork); ec != ErrOK {
		t.Fatalf("unregister: %v", ec)
	}

	quiesced := make(chan struct{})
	go func() {
		c.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while a callback was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce never returned after the callback finished")
	}
}
