package collector

import (
	"encoding/binary"
	"sync"
)

// Queue serializes request processing for one collector-tool thread.
// After the API has been initialized, requests are pushed onto a queue
// associated with a thread; giving each tool thread its own queue
// avoids the contention a single global queue would incur (§IV-B).
// Submit parses the wire buffer, enqueues the entries, drains the
// queue, and returns the number of entries that completed with ErrOK
// (or -1 on a framing error). Entries always drain before Submit
// returns, so the interface stays synchronous while the queue bounds
// contention to threads sharing the same queue.
type Queue struct {
	c       *Collector
	process func(*Request) ErrorCode // c.process; indirection for tests

	mu       sync.Mutex
	pending  []Request
	head     int  // index of the next entry to drain
	draining bool // a drain loop is active on this queue
}

func newQueue(c *Collector) *Queue {
	q := &Queue{c: c}
	q.process = c.process
	return q
}

func (q *Queue) Submit(arg []byte) int {
	reqs, err := ParseRequests(arg)
	if err != nil {
		return -1
	}
	return q.SubmitRequests(reqs)
}

// SubmitRequests processes already-parsed requests, for callers that
// build Request values directly rather than wire buffers: it enqueues
// reqs and drains the queue. Requests are
// processed outside the queue lock, so processing that re-submits to
// the same queue (re-entrancy) cannot self-deadlock: the inner call
// finds a drain already active, leaves its entries for the active
// drain loop further up the stack, and returns 0 immediately — those
// entries complete (their error codes written into the wire entries)
// before the outermost SubmitRequests returns. The same hand-off
// applies to a concurrent submitter on a shared queue (only the
// rejected global-queue design shares queues; see WithGlobalQueue),
// whose entries then complete asynchronously.
func (q *Queue) SubmitRequests(reqs []Request) int {
	q.mu.Lock()
	q.pending = append(q.pending, reqs...)
	if q.draining {
		q.mu.Unlock()
		return 0
	}
	q.draining = true
	ok := 0
	for q.head < len(q.pending) {
		req := q.pending[q.head]
		// Zero the consumed slot so the retained backing array does
		// not pin request payload buffers.
		q.pending[q.head] = Request{}
		q.head++
		q.mu.Unlock()
		ec := q.process(&req)
		req.SetError(ec)
		if ec == ErrOK {
			ok++
		}
		q.mu.Lock()
	}
	q.pending = q.pending[:0]
	q.head = 0
	q.draining = false
	q.mu.Unlock()
	return ok
}

// Convenience wrappers: each builds the corresponding wire message and
// submits it through the queue, so every use also exercises the binary
// protocol. They return the per-request error code.

func (q *Queue) one(kind RequestKind, memSize int, fill func(mem []byte)) (ErrorCode, []byte) {
	buf, mem := AppendRequest(nil, kind, memSize)
	if fill != nil {
		fill(mem)
	}
	buf = Terminate(buf)
	q.Submit(buf)
	reqs, err := ParseRequests(buf)
	if err != nil || len(reqs) != 1 {
		return ErrGeneric, nil
	}
	return reqs[0].EC, reqs[0].Mem
}

// Control issues a payload-free control request (start, stop, pause,
// resume) through queue q.
func Control(q *Queue, kind RequestKind) ErrorCode {
	ec, _ := q.one(kind, 0, nil)
	return ec
}

// Register issues a ReqRegister for event e with callback handle h.
func Register(q *Queue, e Event, h uint64) ErrorCode {
	ec, _ := q.one(ReqRegister, RegisterPayloadSize, func(mem []byte) {
		EncodeRegister(mem, e, h)
	})
	return ec
}

// Unregister issues a ReqUnregister for event e.
func Unregister(q *Queue, e Event) ErrorCode {
	ec, _ := q.one(ReqUnregister, UnregisterPayloadSize, func(mem []byte) {
		EncodeUnregister(mem, e)
	})
	return ec
}

// QueryState issues a ReqState for the given thread and decodes the
// response.
func QueryState(q *Queue, thread int32) (State, uint64, ErrorCode) {
	ec, mem := q.one(ReqState, StatePayloadSize, func(mem []byte) {
		EncodeStateQuery(mem, thread)
	})
	if ec != ErrOK {
		return StateUnknown, 0, ec
	}
	st, wid, _ := DecodeStateResponse(mem)
	return st, wid, ec
}

// StateObservation is one thread's answer from QueryStateBatch.
type StateObservation struct {
	Thread int32
	State  State
	WaitID uint64
	EC     ErrorCode
}

// QueryStateBatch queries every thread's state with one request
// sequence: a single wire buffer carrying one ReqState entry per
// thread — the multi-entry form the protocol defines — submitted once,
// so an asynchronous sampler polling a large team pays the queue
// hand-off once per tick instead of once per thread. wire and out are
// reusable buffers from the previous tick (either may be nil); the
// possibly-grown wire buffer and the observations, in threads order,
// are returned for the next call.
func QueryStateBatch(q *Queue, threads []int32, wire []byte, out []StateObservation) ([]byte, []StateObservation) {
	wire = wire[:0]
	out = out[:0]
	if len(threads) == 0 {
		return wire, out
	}
	for _, th := range threads {
		var mem []byte
		wire, mem = AppendRequest(wire, ReqState, StatePayloadSize)
		EncodeStateQuery(mem, th)
	}
	wire = Terminate(wire)
	q.Submit(wire)
	// Submit wrote each entry's error code and response payload back
	// into the wire buffer; re-parse to read them out.
	reqs, err := ParseRequests(wire)
	if err != nil || len(reqs) != len(threads) {
		for _, th := range threads {
			out = append(out, StateObservation{Thread: th, State: StateUnknown, EC: ErrGeneric})
		}
		return wire, out
	}
	for i, th := range threads {
		o := StateObservation{Thread: th, State: StateUnknown, EC: reqs[i].EC}
		if o.EC == ErrOK {
			st, wid, _ := DecodeStateResponse(reqs[i].Mem)
			o.State, o.WaitID = st, wid
		}
		out = append(out, o)
	}
	return wire, out
}

// QueryPRID issues a ReqCurrentPRID or ReqParentPRID for the given
// thread and decodes the region ID. An ErrSequence code with a zero ID
// means the thread is outside any parallel region.
func QueryPRID(q *Queue, kind RequestKind, thread int32) (uint64, ErrorCode) {
	ec, mem := q.one(kind, PRIDPayloadSize, func(mem []byte) {
		EncodePRIDQuery(mem, thread)
	})
	id, _ := DecodePRIDResponse(mem)
	return id, ec
}

// little-endian helpers shared with api.go.
func leU32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
