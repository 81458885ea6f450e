// Package mpi is an in-process message-passing substrate for the
// multi-zone hybrid benchmarks (NPB3.2-MZ-MPI in the paper). Ranks are
// goroutine groups inside one process: each rank runs its own OpenMP
// runtime, as a real MPI+OpenMP process owns its own OpenMP runtime
// library instance. The subset implemented — point-to-point send and
// receive with tag matching, barrier, broadcast, reduce, allreduce and
// gather — is what the multi-zone boundary exchange needs.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"goomp/internal/super"
)

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// AnySource matches any sending rank in Recv.
const AnySource = -1

type message struct {
	src  int
	tag  int
	data []float64
}

// mailbox is the per-destination message store with MPI-style
// (source, tag) matching.
//
// Wakeup invariant: put must Broadcast, never Signal. Several
// receivers with different (source, tag) filters can block on one
// mailbox — the boundary exchange posts AnySource receives while a
// collective waits on a reserved tag — and a Signal could wake only a
// receiver whose filter the new message does not match, which would
// park again and strand the matching receiver forever (a lost
// wakeup). Broadcast wakes every filter; non-matching receivers
// re-scan and re-park. TestRecvInterleavedWildcards pins this down.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.pending = append(m.pending, msg)
	m.cond.Broadcast()
	m.mu.Unlock()
	if s := super.Enabled(); s != nil {
		s.Note() // message delivery is forward progress
	}
}

// WorldFailedError is the poison a failed rank leaves behind: every
// rank blocked in Recv, Barrier or a collective is released by
// panicking with the same *WorldFailedError, and World.Run re-raises
// it on the caller once all rank goroutines have unwound.
type WorldFailedError struct {
	Rank  int // the rank whose body panicked first
	Panic any // the recovered panic value
}

func (e *WorldFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed: %v", e.Rank, e.Panic)
}

// worldSeq numbers worlds so supervision labels stay unique when
// several worlds coexist in one process.
var worldSeq atomic.Uint64

// faultHook lets the fault-injection harness drop or delay messages on
// a (src, dst, tag) edge. A nil hook costs one atomic load per Send.
type faultHook func(src, dst, tag int) (drop bool, delay time.Duration)

// World is an MPI communicator universe of a fixed number of ranks.
type World struct {
	size  int
	seq   uint64
	boxes []*mailbox

	failed atomic.Pointer[WorldFailedError]
	fault  atomic.Pointer[faultHook]

	bmu    sync.Mutex
	bcond  *sync.Cond
	bcount int
	bsense bool
}

// NewWorld creates a world of size ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, seq: worldSeq.Add(1), boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.bcond = sync.NewCond(&w.bmu)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetFaultHook installs (or clears, with nil) a message fault hook for
// chaos testing: Send consults it and drops the message or defers its
// delivery. Not for production use.
func (w *World) SetFaultHook(h func(src, dst, tag int) (drop bool, delay time.Duration)) {
	if h == nil {
		w.fault.Store(nil)
		return
	}
	fh := faultHook(h)
	w.fault.Store(&fh)
}

// Err returns the world's failure, or nil while all ranks are healthy.
func (w *World) Err() *WorldFailedError { return w.failed.Load() }

// Run starts one goroutine per rank executing fn and returns when all
// ranks finish. It is the mpirun of this substrate.
//
// A rank body that panics no longer strands its peers: the panic is
// recovered at the rank boundary, the world is poisoned, and every
// rank blocked in Recv, Barrier or a collective is released by
// panicking with a *WorldFailedError naming the failed rank. Once all
// rank goroutines have unwound, Run re-raises that error on the
// caller.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if wf, ok := r.(*WorldFailedError); ok && wf == w.failed.Load() {
					return // a waiter released by the poison; already recorded
				}
				w.poison(rank, r)
			}()
			fn(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	if err := w.failed.Load(); err != nil {
		panic(err)
	}
}

// poison records the first failure and wakes every blocked rank so it
// can observe the failure and unwind.
func (w *World) poison(rank int, val any) {
	w.failed.CompareAndSwap(nil, &WorldFailedError{Rank: rank, Panic: val})
	for _, m := range w.boxes {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	}
	w.bmu.Lock()
	w.bcond.Broadcast()
	w.bmu.Unlock()
}

// Comm is one rank's communicator handle.
type Comm struct {
	world  *World
	rank   int
	slabel string // lazily cached hang-supervision label
}

// superWho returns the rank's supervision label ("mpi1 rank 2"); the
// world sequence number keeps labels unique across worlds.
func (c *Comm) superWho() string {
	if c.slabel == "" {
		c.slabel = fmt.Sprintf("mpi%d rank %d", c.world.seq, c.rank)
	}
	return c.slabel
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers a copy of data to dst with the given tag. It is
// buffered (never blocks), like an MPI_Send small enough for eager
// delivery.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	msg := message{src: c.rank, tag: tag, data: cp}
	box := c.world.boxes[dst]
	if h := c.world.fault.Load(); h != nil {
		drop, delay := (*h)(c.rank, dst, tag)
		if drop {
			return
		}
		if delay > 0 {
			time.AfterFunc(delay, func() { box.put(msg) })
			return
		}
	}
	box.put(msg)
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its payload and actual source. Use AnySource/AnyTag as wildcards.
// If a rank fails while we wait, Recv panics with the world's
// *WorldFailedError instead of blocking forever.
func (c *Comm) Recv(src, tag int) ([]float64, int) {
	m := c.world.boxes[c.rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	var s *super.Supervisor
	var tok uint64
	defer func() {
		if s != nil {
			s.EndWait(tok) // also clears the record when poison unwinds us
		}
	}()
	for {
		for i, msg := range m.pending {
			if (src == AnySource || msg.src == src) && (tag == AnyTag || msg.tag == tag) {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				return msg.data, msg.src
			}
		}
		if err := c.world.failed.Load(); err != nil {
			panic(err)
		}
		if s == nil {
			if s = super.Enabled(); s != nil {
				tok = s.BeginWait(0, c.superWho(), -1, super.Resource{
					Kind:   super.ResMsg,
					ID:     uint64(uintptr(unsafe.Pointer(m))),
					Detail: fmt.Sprintf("src=%s tag=%s", wildcard(src), wildcard(tag)),
				}, "")
			}
		}
		m.cond.Wait()
	}
}

// wildcard renders a Recv filter component for diagnostics.
func wildcard(v int) string {
	if v < 0 {
		return "any"
	}
	return fmt.Sprintf("%d", v)
}

// Sendrecv exchanges data with a partner rank in one deadlock-free
// step.
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) ([]float64, int) {
	c.Send(dst, sendTag, data)
	return c.Recv(src, recvTag)
}

// Barrier blocks until every rank has entered it (sense-reversing
// central barrier). If a rank fails while we wait, Barrier panics
// with the world's *WorldFailedError instead of blocking forever.
func (c *Comm) Barrier() {
	w := c.world
	w.bmu.Lock()
	defer w.bmu.Unlock()
	if err := w.failed.Load(); err != nil {
		panic(err)
	}
	sense := w.bsense
	w.bcount++
	if w.bcount == w.size {
		w.bcount = 0
		w.bsense = !sense
		w.bcond.Broadcast()
		if s := super.Enabled(); s != nil {
			s.Note() // a completed barrier episode is forward progress
		}
		return
	}
	s := super.Enabled()
	var tok uint64
	if s != nil {
		tok = s.BeginWait(0, c.superWho(), -1, super.Resource{
			Kind:   super.ResMPIBar,
			ID:     w.seq,
			Detail: fmt.Sprintf("world of %d", w.size),
		}, "")
		defer s.EndWait(tok)
	}
	for w.bsense == sense {
		if err := w.failed.Load(); err != nil {
			panic(err)
		}
		w.bcond.Wait()
	}
}

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (op Op) apply(dst, src []float64) {
	for i := range dst {
		switch op {
		case OpSum:
			dst[i] += src[i]
		case OpMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case OpMin:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// reserved tag space for collectives, above user tags.
const (
	tagBcast = 1 << 20
	tagGath  = 2 << 20
	tagRed   = 3 << 20
)

// Bcast distributes root's data to every rank and returns each rank's
// copy.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	if c.rank == root {
		for r := 0; r < c.world.size; r++ {
			if r != root {
				c.Send(r, tagBcast, data)
			}
		}
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	got, _ := c.Recv(root, tagBcast)
	return got
}

// Gather collects each rank's contribution at root; root receives a
// slice indexed by rank, other ranks receive nil.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	if c.rank != root {
		c.Send(root, tagGath+c.rank, data)
		return nil
	}
	out := make([][]float64, c.world.size)
	cp := make([]float64, len(data))
	copy(cp, data)
	out[root] = cp
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		got, _ := c.Recv(r, tagGath+r)
		out[r] = got
	}
	return out
}

// Reduce combines every rank's data element-wise at root with op; root
// receives the result, others nil.
func (c *Comm) Reduce(root int, op Op, data []float64) []float64 {
	if c.rank != root {
		c.Send(root, tagRed+c.rank, data)
		return nil
	}
	acc := make([]float64, len(data))
	copy(acc, data)
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		got, _ := c.Recv(r, tagRed+r)
		op.apply(acc, got)
	}
	return acc
}

// Allreduce combines every rank's data with op and returns the result
// on every rank (reduce to rank 0, broadcast back).
func (c *Comm) Allreduce(op Op, data []float64) []float64 {
	acc := c.Reduce(0, op, data)
	if c.rank == 0 {
		return c.Bcast(0, acc)
	}
	return c.Bcast(0, nil)
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(op Op, v float64) float64 {
	return c.Allreduce(op, []float64{v})[0]
}
