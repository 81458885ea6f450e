package collector

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func startCollector(t *testing.T) (*Collector, Queue) {
	t.Helper()
	c := New()
	q := c.NewQueue()
	if ec := Control(q, ReqStart); ec != ErrOK {
		t.Fatalf("start: %v", ec)
	}
	return c, q
}

func TestStartStopSequencing(t *testing.T) {
	c := New()
	q := c.NewQueue()

	if c.Initialized() {
		t.Fatal("collector initialized before start")
	}
	if ec := Control(q, ReqStart); ec != ErrOK {
		t.Fatalf("first start: %v", ec)
	}
	if !c.Initialized() {
		t.Fatal("collector not initialized after start")
	}
	// Two initialization requests without a stop in between return an
	// out-of-sync error.
	if ec := Control(q, ReqStart); ec != ErrSequence {
		t.Fatalf("second start: got %v, want %v", ec, ErrSequence)
	}
	if ec := Control(q, ReqStop); ec != ErrOK {
		t.Fatalf("stop: %v", ec)
	}
	if c.Initialized() {
		t.Fatal("collector still initialized after stop")
	}
	if ec := Control(q, ReqStop); ec != ErrSequence {
		t.Fatalf("second stop: got %v, want %v", ec, ErrSequence)
	}
	// Start again after stop is legal.
	if ec := Control(q, ReqStart); ec != ErrOK {
		t.Fatalf("restart: %v", ec)
	}
}

func TestPauseResume(t *testing.T) {
	c := New()
	q := c.NewQueue()

	if ec := Control(q, ReqPause); ec != ErrSequence {
		t.Fatalf("pause before start: got %v, want %v", ec, ErrSequence)
	}
	if ec := Control(q, ReqResume); ec != ErrSequence {
		t.Fatalf("resume before start: got %v, want %v", ec, ErrSequence)
	}
	Control(q, ReqStart)
	if ec := Control(q, ReqPause); ec != ErrOK {
		t.Fatalf("pause: %v", ec)
	}
	if !c.Paused() {
		t.Fatal("not paused after pause request")
	}
	if ec := Control(q, ReqResume); ec != ErrOK {
		t.Fatalf("resume: %v", ec)
	}
	if c.Paused() {
		t.Fatal("still paused after resume")
	}
}

func TestRegisterRequiresStart(t *testing.T) {
	c := New()
	q := c.NewQueue()
	h := c.NewCallbackHandle(func(Event, *ThreadInfo) {})
	if ec := Register(q, EventFork, h); ec != ErrSequence {
		t.Fatalf("register before start: got %v, want %v", ec, ErrSequence)
	}
	Control(q, ReqStart)
	if ec := Register(q, EventFork, h); ec != ErrOK {
		t.Fatalf("register after start: %v", ec)
	}
	if !c.Registered(EventFork) {
		t.Fatal("fork not registered")
	}
}

func TestRegisterBadEventAndHandle(t *testing.T) {
	c, q := startCollector(t)
	h := c.NewCallbackHandle(func(Event, *ThreadInfo) {})
	if ec := Register(q, Event(NumEvents), h); ec != ErrBadRequest {
		t.Errorf("invalid event: got %v, want %v", ec, ErrBadRequest)
	}
	if ec := Register(q, Event(-1), h); ec != ErrBadRequest {
		t.Errorf("negative event: got %v, want %v", ec, ErrBadRequest)
	}
	if ec := Register(q, EventFork, h+999); ec != ErrBadRequest {
		t.Errorf("unknown handle: got %v, want %v", ec, ErrBadRequest)
	}
	c.ReleaseCallbackHandle(h)
	if ec := Register(q, EventFork, h); ec != ErrBadRequest {
		t.Errorf("released handle: got %v, want %v", ec, ErrBadRequest)
	}
}

func TestEventDispatchLifecycle(t *testing.T) {
	c, q := startCollector(t)
	ti := NewThreadInfo(0)
	c.BindThread(ti)

	var fired atomic.Int64
	h := c.NewCallbackHandle(func(e Event, t *ThreadInfo) {
		if e != EventFork {
			panic("wrong event delivered")
		}
		fired.Add(1)
	})

	// Unregistered: no dispatch.
	c.Event(ti, EventFork)
	if fired.Load() != 0 {
		t.Fatal("event fired before registration")
	}

	Register(q, EventFork, h)
	c.Event(ti, EventFork)
	if fired.Load() != 1 {
		t.Fatalf("fired = %d, want 1", fired.Load())
	}

	// Paused: no dispatch, registration retained.
	Control(q, ReqPause)
	c.Event(ti, EventFork)
	if fired.Load() != 1 {
		t.Fatal("event fired while paused")
	}
	Control(q, ReqResume)
	c.Event(ti, EventFork)
	if fired.Load() != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired.Load())
	}

	// Unregister: no dispatch.
	Unregister(q, EventFork)
	c.Event(ti, EventFork)
	if fired.Load() != 2 {
		t.Fatal("event fired after unregister")
	}

	// Stop clears registrations.
	Register(q, EventFork, h)
	Control(q, ReqStop)
	if c.Registered(EventFork) {
		t.Fatal("registration survived stop")
	}
	c.Event(ti, EventFork)
	if fired.Load() != 2 {
		t.Fatal("event fired after stop")
	}
}

func TestEventCount(t *testing.T) {
	c, q := startCollector(t)
	ti := NewThreadInfo(0)
	h := c.NewCallbackHandle(func(Event, *ThreadInfo) {})
	Register(q, EventJoin, h)
	for i := 0; i < 17; i++ {
		c.Event(ti, EventJoin)
	}
	if got := c.EventCount(EventJoin); got != 17 {
		t.Errorf("EventCount = %d, want 17", got)
	}
	if got := c.EventCount(Event(NumEvents)); got != 0 {
		t.Errorf("EventCount(invalid) = %d, want 0", got)
	}
}

func TestStateQuery(t *testing.T) {
	c, q := startCollector(t)
	ti := NewThreadInfo(2)
	c.BindThread(ti)

	st, wid, ec := QueryState(q, 2)
	if ec != ErrOK {
		t.Fatalf("state query: %v", ec)
	}
	// Descriptors start in the overhead state so a thread always has a
	// state associated with it.
	if st != StateOverhead {
		t.Errorf("initial state = %v, want %v", st, StateOverhead)
	}
	if wid != 0 {
		t.Errorf("initial wait id = %d, want 0", wid)
	}

	ti.EnterWait(StateLockWait)
	ti.EnterWait(StateLockWait)
	st, wid, ec = QueryState(q, 2)
	if ec != ErrOK || st != StateLockWait || wid != 2 {
		t.Errorf("after two lock waits: (%v, %d, %v), want (%v, 2, %v)",
			st, wid, ec, StateLockWait, ErrOK)
	}

	// State queries are honored even when the collector is stopped.
	Control(q, ReqStop)
	st, _, ec = QueryState(q, 2)
	if ec != ErrOK || st != StateLockWait {
		t.Errorf("state query after stop: (%v, %v)", st, ec)
	}

	if _, _, ec = QueryState(q, 77); ec != ErrThread {
		t.Errorf("unknown thread: got %v, want %v", ec, ErrThread)
	}
}

// TestQueryStateBatch: one request sequence queries many threads with
// a single submit, agreeing with per-thread QueryState, reporting
// per-entry error codes, and reusing the caller's buffers.
func TestQueryStateBatch(t *testing.T) {
	c, q := startCollector(t)
	for id := int32(0); id < 3; id++ {
		c.BindThread(NewThreadInfo(id))
	}
	ti := NewThreadInfo(3)
	c.BindThread(ti)
	ti.EnterWait(StateLockWait)

	wire, obs := QueryStateBatch(q, []int32{0, 1, 2, 3, 77}, nil, nil)
	if len(obs) != 5 {
		t.Fatalf("got %d observations, want 5", len(obs))
	}
	for i, o := range obs {
		wantSt, wantWid, wantEC := QueryState(q, o.Thread)
		if o.EC != wantEC || o.State != wantSt || o.WaitID != wantWid {
			t.Errorf("obs[%d] thread %d = (%v,%d,%v), QueryState says (%v,%d,%v)",
				i, o.Thread, o.State, o.WaitID, o.EC, wantSt, wantWid, wantEC)
		}
	}
	if obs[3].State != StateLockWait {
		t.Errorf("thread 3 state = %v, want %v", obs[3].State, StateLockWait)
	}
	if obs[4].EC != ErrThread {
		t.Errorf("unknown thread EC = %v, want %v", obs[4].EC, ErrThread)
	}

	// Reuse: the returned buffers serve the next tick without growing.
	wire2, obs2 := QueryStateBatch(q, []int32{2, 0}, wire, obs)
	if len(obs2) != 2 || obs2[0].Thread != 2 || obs2[1].Thread != 0 {
		t.Fatalf("reused-buffer batch wrong: %+v", obs2)
	}
	if &wire2[0] != &wire[0] {
		t.Error("wire buffer was not reused for a smaller batch")
	}

	// Empty thread set: no submit, empty result.
	if _, obs3 := QueryStateBatch(q, nil, wire2, obs2); len(obs3) != 0 {
		t.Errorf("empty batch returned %d observations", len(obs3))
	}
}

func TestPRIDQueries(t *testing.T) {
	c, q := startCollector(t)
	ti := NewThreadInfo(1)
	c.BindThread(ti)

	// Outside a parallel region: out-of-sequence error, ID zero.
	id, ec := QueryPRID(q, ReqCurrentPRID, 1)
	if ec != ErrSequence || id != 0 {
		t.Errorf("outside region: (%d, %v), want (0, %v)", id, ec, ErrSequence)
	}

	ti.SetTeam(&TeamInfo{RegionID: 42, ParentRegionID: 7, Size: 4})
	id, ec = QueryPRID(q, ReqCurrentPRID, 1)
	if ec != ErrOK || id != 42 {
		t.Errorf("current prid: (%d, %v), want (42, OK)", id, ec)
	}
	id, ec = QueryPRID(q, ReqParentPRID, 1)
	if ec != ErrOK || id != 7 {
		t.Errorf("parent prid: (%d, %v), want (7, OK)", id, ec)
	}

	ti.SetTeam(nil)
	id, ec = QueryPRID(q, ReqParentPRID, 1)
	if ec != ErrSequence || id != 0 {
		t.Errorf("after region: (%d, %v), want (0, %v)", id, ec, ErrSequence)
	}

	if _, ec = QueryPRID(q, ReqCurrentPRID, 99); ec != ErrThread {
		t.Errorf("unknown thread: got %v, want %v", ec, ErrThread)
	}
}

func TestMasterRebind(t *testing.T) {
	c, q := startCollector(t)
	serial := NewThreadInfo(0)
	serial.SetState(StateSerial)
	parallel := NewThreadInfo(0)
	parallel.SetState(StateWorking)

	// The master thread has two descriptors; the binding selects which
	// one queries see.
	c.BindThread(serial)
	st, _, _ := QueryState(q, 0)
	if st != StateSerial {
		t.Errorf("serial binding: state = %v", st)
	}
	c.BindThread(parallel)
	st, _, _ = QueryState(q, 0)
	if st != StateWorking {
		t.Errorf("parallel binding: state = %v", st)
	}
	c.UnbindThread(0)
	if _, _, ec := QueryState(q, 0); ec != ErrThread {
		t.Errorf("after unbind: got %v, want %v", ec, ErrThread)
	}
}

func TestUnsupportedAndMalformedRequests(t *testing.T) {
	c, _ := startCollector(t)

	// Unknown kind beyond the enumeration.
	buf, _ := AppendRequest(nil, RequestKind(numRequestKinds+5), 0)
	buf = Terminate(buf)
	if n := c.API(buf); n != 0 {
		t.Errorf("unknown kind: %d requests succeeded", n)
	}
	reqs, _ := ParseRequests(buf)
	if reqs[0].EC != ErrBadRequest {
		t.Errorf("unknown kind ec = %v, want %v", reqs[0].EC, ErrBadRequest)
	}

	// State query with a too-small payload.
	buf, _ = AppendRequest(nil, ReqState, 4)
	buf = Terminate(buf)
	c.API(buf)
	reqs, _ = ParseRequests(buf)
	if reqs[0].EC != ErrMemTooSmall {
		t.Errorf("short state ec = %v, want %v", reqs[0].EC, ErrMemTooSmall)
	}

	// Truncated buffer.
	if n := c.API([]byte{1, 2, 3}); n != -1 {
		t.Errorf("truncated buffer: API = %d, want -1", n)
	}
}

func TestAPIBatchProcessing(t *testing.T) {
	c := New()
	ti := NewThreadInfo(0)
	c.BindThread(ti)
	h := c.NewCallbackHandle(func(Event, *ThreadInfo) {})

	// One buffer carrying start, register, state query: the sequence
	// from the paper's Figure 3.
	var buf []byte
	buf, _ = AppendRequest(buf, ReqStart, 0)
	var regMem, stMem []byte
	buf, regMem = AppendRequest(buf, ReqRegister, RegisterPayloadSize)
	EncodeRegister(regMem, EventFork, h)
	buf, stMem = AppendRequest(buf, ReqState, StatePayloadSize)
	EncodeStateQuery(stMem, 0)
	buf = Terminate(buf)

	if n := c.API(buf); n != 3 {
		t.Fatalf("API = %d, want 3", n)
	}
	reqs, _ := ParseRequests(buf)
	for i, r := range reqs {
		if r.EC != ErrOK {
			t.Errorf("request %d (%v): ec = %v", i, r.Kind, r.EC)
		}
	}
	if !c.Registered(EventFork) {
		t.Error("fork not registered via batch")
	}
	st, _, ok := DecodeStateResponse(reqs[2].Mem)
	if !ok || st != StateOverhead {
		t.Errorf("batched state response = %v, ok=%v", st, ok)
	}
}

func TestConcurrentRegistrationSameEvent(t *testing.T) {
	c, _ := startCollector(t)
	// Multiple threads registering the same event with different
	// callbacks must not race; last writer wins and the table stays
	// consistent.
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := c.NewQueue()
			h := c.NewCallbackHandle(func(Event, *ThreadInfo) {})
			for i := 0; i < 100; i++ {
				Register(q, EventJoin, h)
			}
		}()
	}
	wg.Wait()
	if !c.Registered(EventJoin) {
		t.Error("join not registered after concurrent registration")
	}
}

func TestConcurrentEventsAndQueries(t *testing.T) {
	c, q := startCollector(t)
	tis := make([]*ThreadInfo, 4)
	for i := range tis {
		tis[i] = NewThreadInfo(int32(i))
		c.BindThread(tis[i])
	}
	var count atomic.Int64
	h := c.NewCallbackHandle(func(Event, *ThreadInfo) { count.Add(1) })
	Register(q, EventThrBeginIBar, h)

	var wg sync.WaitGroup
	for i := range tis {
		wg.Add(1)
		go func(ti *ThreadInfo) {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				ti.EnterWait(StateImplicitBarrier)
				c.Event(ti, EventThrBeginIBar)
				ti.SetState(StateWorking)
			}
		}(tis[i])
	}
	// Asynchronous sampler: queries race with events by design.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sq := c.NewQueue()
		for n := 0; n < 200; n++ {
			for id := int32(0); id < 4; id++ {
				if st, _, ec := QueryState(sq, id); ec != ErrOK || !st.Valid() {
					t.Errorf("sampler: (%v, %v)", st, ec)
					return
				}
			}
		}
	}()
	wg.Wait()
	if count.Load() != 4*500 {
		t.Errorf("callback count = %d, want %d", count.Load(), 4*500)
	}
}

func TestGlobalQueueOption(t *testing.T) {
	c := New(WithGlobalQueue())
	q1 := c.NewQueue()
	q2 := c.NewQueue()
	if ec := Control(q1, ReqStart); ec != ErrOK {
		t.Fatalf("start: %v", ec)
	}
	// With a global queue both handles share sequencing state via the
	// same collector, so a second start through the other queue is
	// still out of sync.
	if ec := Control(q2, ReqStart); ec != ErrSequence {
		t.Fatalf("second start: %v", ec)
	}
}

// Property: EnterWait increments exactly the wait ID of the state's
// kind and leaves the others untouched.
func TestEnterWaitProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		ti := NewThreadInfo(0)
		var want [numWaitKinds]uint64
		for _, b := range seq {
			s := State(int32(b) % NumStates)
			ti.EnterWait(s)
			if k := s.Wait(); k != WaitNone {
				want[k]++
			}
			if ti.State() != s {
				return false
			}
		}
		for k := WaitKind(1); int32(k) < numWaitKinds; k++ {
			if ti.WaitID(k) != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEventAndStateStrings(t *testing.T) {
	for e := Event(0); int32(e) < NumEvents; e++ {
		if !e.Valid() || e.String() == "" {
			t.Errorf("event %d: invalid or unnamed", e)
		}
	}
	for s := State(0); int32(s) < NumStates; s++ {
		if !s.Valid() || s.String() == "" {
			t.Errorf("state %d: invalid or unnamed", s)
		}
	}
	if Event(NumEvents).Valid() || State(NumStates).Valid() {
		t.Error("out-of-range enum values report valid")
	}
	if !EventFork.Mandatory() || !EventJoin.Mandatory() {
		t.Error("fork/join must be mandatory")
	}
	if EventThrBeginIBar.Mandatory() {
		t.Error("barrier events are optional")
	}
}

func TestWaitKindMapping(t *testing.T) {
	cases := map[State]WaitKind{
		StateImplicitBarrier: WaitBarrier,
		StateExplicitBarrier: WaitBarrier,
		StateLockWait:        WaitLock,
		StateCriticalWait:    WaitCritical,
		StateOrderedWait:     WaitOrdered,
		StateAtomicWait:      WaitAtomic,
		StateWorking:         WaitNone,
		StateSerial:          WaitNone,
		StateIdle:            WaitNone,
		StateReduction:       WaitNone,
		StateOverhead:        WaitNone,
	}
	for s, k := range cases {
		if got := s.Wait(); got != k {
			t.Errorf("%v.Wait() = %v, want %v", s, got, k)
		}
	}
}

func TestWaitIDBoundsSafe(t *testing.T) {
	ti := NewThreadInfo(0)
	if ti.WaitID(WaitNone) != 0 {
		t.Error("WaitNone should return 0")
	}
	if ti.WaitID(WaitKind(99)) != 0 {
		t.Error("out-of-range kind should return 0")
	}
}
