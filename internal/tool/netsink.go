package tool

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/degrade"
	"goomp/internal/freelist"
	"goomp/internal/ingest"
	"goomp/internal/perf"
)

// The network sink ships the streamer's staged trace blocks to a psxd
// ingestion daemon over the framed ingest wire protocol. It obeys the
// same invariants as the rest of the storage pipeline:
//
//   - A recording thread is never blocked: chunks reach the sink
//     through the streamer's writer goroutine, and the sink's hand-off
//     is a non-blocking push onto its one queue, the outbox.
//   - The outbox holds every frame the sink has not settled, in
//     sequence order: the head is what is on the wire awaiting an ack
//     (at most netWindow frames), behind it what is not sent yet.
//     Ordering is the queue's, not an invariant kept between holders.
//   - The connection manager reconnects with capped, interruptible
//     backoff (the same waitBackoff helper the file streamer's retry
//     loop uses, so Detach never stalls behind a sleeping sender). On
//     reconnect the server reports the last sequence it accepted, which
//     settles the head up to it, and the rest of the head is resent. A
//     frame torn by a mid-chunk disconnect was never acked, so it is
//     resent whole.
//   - An OK ack is cumulative: it settles every frame up to its
//     sequence number. A non-OK ack settles only its own frame — a
//     durable daemon nacks from its connection handler at once but
//     acks OK only after the group commit, so a nack can overtake the
//     OK acks of older frames, and those must stay queued.
//   - Memory is bounded: an unsent chunk keeps its block only while
//     fewer than IngestPendingDepth unsent chunks do. Past that, with a
//     file sink alongside (Options.StreamDir), the block is already in
//     the thread's local trace file, so the frame drops its bytes and
//     is parked — store-and-forward: it is read back from the file when
//     its turn to be sent comes, and an outage longer than the memory
//     bound degrades to disk, not to loss. Without a file sink, for a
//     block not on local disk, or past maxParkedBytes, the chunk is
//     dropped with exact accounting. Control frames (SEAL, BYE) carry
//     no block and always queue. The network edge only ever adds
//     delivery, never risk.
//   - Downstream congestion feeds the overhead governor: an OVERLOADED
//     ack from the server, or a chunk parked at all, signals
//     backpressure so the governor can step the measurement down
//     instead of producing data the system cannot move.
//   - Every chunk ship takes is settled exactly once, by settle, into
//     one bucket of the sink's ledger (ingest.Ledger):
//     produced == shipped + replayed + dropped + storage + spill-pending.
//   - A block's buffer goes back to the streamer's free list when the
//     sink lets the block go — settled or parked — unless the file sink
//     still holds it: a block that is not in the trace file while there
//     is one is in the file sink's retained backlog, which replays it
//     at stop.

const (
	netPendingDepth = 256                   // unsent chunks that may hold their block in memory
	netWindow       = 64                    // max unacked frames in flight
	netDialTimeout  = 2 * time.Second       // dial + HELLO handshake bound
	netWriteTimeout = 2 * time.Second       // per-frame write bound
	netAckWait      = 2 * time.Second       // ack wait at a full window or while flushing
	netBackoff0     = 25 * time.Millisecond // first reconnect backoff step
	netBackoffCap   = 2 * time.Second       // reconnect backoff cap
	netHeartbeat    = time.Second           // idle keepalive period
	netFlushGrace   = 3 * time.Second       // stop-time flush deadline

	// maxParkedBytes bounds the block bytes parked at once. The bytes
	// are on local disk regardless; the bound caps the queue's memory
	// and the backlog a reconnect has to replay.
	maxParkedBytes = 64 << 20
)

// codeUndelivered is what settle is told for a chunk the sink gives up
// on by itself (never on the wire): like any non-OK, non-storage ack
// it lands in the dropped bucket.
const codeUndelivered ingest.Code = ^ingest.Code(0)

// The network sink's ledger buckets: the terminal fates of a chunk it
// took. Nothing but settle moves them; Report, the obs plane and the
// BYE frame read them.
const (
	shipped  ingest.Bucket = iota // acked CodeOK straight from memory
	replayed                      // acked CodeOK after being parked
	dropped                       // never delivered: over the bound, nack, parked block failing its check, unflushed at stop
	storage                       // refused INGEST_STORAGE: the daemon's disk failed, not the network
)

// netItem is one queued wire frame. A chunk's block is nil while it is
// parked; size is the block's length either way, and off is where it
// sits in its thread's local trace file, −1 when it is not on local
// disk. spilled marks a chunk that was ever parked: its eventual ack
// counts as replayed, not shipped, so the conservation equation
// separates the two paths.
type netItem struct {
	kind    uint8
	seq     uint64
	thread  int32
	samples uint32
	block   []byte
	size    int
	spilled bool
	off     int64
}

// tally counts chunk frames, their samples and their block bytes.
type tally struct {
	chunks, samples uint64
	bytes           int64
}

func (t *tally) add(it *netItem) {
	t.chunks++
	t.samples += uint64(it.samples)
	t.bytes += int64(it.size)
}

func (t *tally) sub(it *netItem) {
	t.chunks--
	t.samples -= uint64(it.samples)
	t.bytes -= int64(it.size)
}

// netSink is the connection manager plus its outbox.
type netSink struct {
	addr  string
	hello ingest.Hello
	dial  func(addr string) (net.Conn, error)
	depth int    // unsent chunks that may hold their block in memory
	dir   string // the file sink's directory, where parked blocks are read back; "" means no parking

	wake    chan struct{} // one slot: a frame was queued
	closing chan struct{} // shutdown requested: flush then exit
	done    chan struct{} // flush grace expired: drop and exit
	wg      sync.WaitGroup

	gov *degrade.Governor // nil unless the overhead governor is on

	// The outbox. q[head:] is every frame not yet settled, oldest
	// first; its first sent frames are on the wire. The producer only
	// appends; the sender alone sends, pops and removes, so an index
	// relative to head stays valid across the producer's appends.
	mu      sync.Mutex
	q       []netItem
	head    int
	sent    int
	held    int                // unsent chunks holding their block in memory
	parked  tally              // unsent chunks whose block is only in the trace file
	spilled tally              // every chunk ever parked, counted once
	files   map[int32]*os.File // the sender's read handles for parked blocks

	seq   atomic.Uint64          // last assigned sequence number
	frame []byte                 // the sender's CHUNK frame buffer, reused frame after frame
	free  *freelist.List[[]byte] // where let-go blocks go; nil, keeping nothing, without a streamer

	led            *ingest.Ledger // every chunk ship takes, settled exactly once
	overloadedAcks atomic.Uint64  // INGEST_OVERLOADED acks seen (governor input)
	connects       atomic.Uint64  // successful connections (reconnects = connects-1)
}

// start starts the sink's sender goroutine.
func (n *netSink) start() {
	n.wg.Add(1)
	go n.loop()
}

// newNetSink builds an unconnected sink. gov may be nil (no overhead
// governor).
func newNetSink(opts *Options, gov *degrade.Governor) *netSink {
	host, _ := os.Hostname()
	run := opts.IngestRun
	if run == "" {
		run = fmt.Sprintf("%s-%d-%d", host, os.Getpid(), time.Now().UnixNano())
	}
	var flags uint32
	if opts.IngestDurable {
		// Durable acks: the server acknowledges a frame only once its
		// group commit reached disk, so the outbox's head is exactly
		// what a daemon crash can lose — and what the reconnect resends.
		flags |= ingest.FlagDurable
	}
	n := &netSink{
		addr:    opts.IngestAddr,
		hello:   ingest.Hello{Version: ingest.ProtoVersion, Run: run, Host: host, PID: uint64(os.Getpid()), Flags: flags},
		dial:    opts.DialIngest,
		depth:   opts.IngestPendingDepth,
		dir:     opts.StreamDir,
		wake:    make(chan struct{}, 1),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		gov:     gov,
		files:   make(map[int32]*os.File),
		led:     ingest.NewLedger("ingest produced", "shipped", "replayed", "dropped", "storage"),
	}
	n.led.Held = n.parkedCounts
	if n.depth <= 0 {
		n.depth = netPendingDepth
	}
	if n.dial == nil {
		n.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, netDialTimeout)
		}
	}
	return n
}

// ship queues one staged trace block; off is where the file sink wrote
// it (−1: not on local disk). Called only from the streamer's writer
// goroutine; never blocks.
func (n *netSink) ship(thread int32, samples uint32, block []byte, off int64) {
	n.led.Take(samples)
	n.enqueue(netItem{
		kind:    ingest.MsgChunk,
		seq:     n.seq.Add(1),
		thread:  thread,
		samples: samples,
		block:   block,
		size:    len(block),
		off:     off,
	})
}

// seal queues a thread's end-of-stream marker.
func (n *netSink) seal(thread int32) {
	n.enqueue(netItem{kind: ingest.MsgSeal, seq: n.seq.Add(1), thread: thread})
}

// enqueue appends one frame to the outbox and wakes the sender. A
// chunk past the memory bound is parked or, failing that, dropped.
func (n *netSink) enqueue(it netItem) {
	n.mu.Lock()
	if it.kind == ingest.MsgChunk {
		if n.held < n.depth {
			n.held++
		} else if !n.park(&it) {
			n.mu.Unlock()
			n.settle(&it, codeUndelivered)
			return
		} else if n.gov != nil {
			// Parking is itself a congestion signal: memory was not
			// enough.
			n.gov.Backpressure()
		}
	}
	if len(n.q) == cap(n.q) && n.head >= len(n.q)/2 {
		// Reuse the backing array: slide the live frames down over the
		// popped ones instead of growing.
		live := copy(n.q, n.q[n.head:])
		clear(n.q[live:])
		n.q, n.head = n.q[:live], 0
	}
	n.q = append(n.q, it)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// park lets a chunk's block go from memory, leaving the frame pointing
// at its copy in the local trace file; false means it has none or the
// parked-byte bound is reached. Called with mu held.
func (n *netSink) park(it *netItem) bool {
	if n.dir == "" || it.off < 0 || n.parked.bytes+int64(it.size) > maxParkedBytes {
		return false
	}
	n.release(it)
	it.block = nil
	n.parked.add(it)
	if !it.spilled {
		// A frame parked again at a hard stop, after it was read back
		// and sent but never acked, keeps its original count.
		it.spilled = true
		n.spilled.add(it)
	}
	return true
}

// release returns a chunk's block buffer to the free list unless the
// file sink retains the block (see the sink's invariants above).
func (n *netSink) release(it *netItem) {
	if it.block != nil && (it.off >= 0 || n.dir == "") {
		n.free.Put(it.block)
	}
}

// settle books where one frame ended up, and releases its block; every
// path that lets go of a frame calls it, exactly once per frame. OK
// means delivered and acknowledged — replayed if the chunk was ever
// parked, shipped otherwise. INGEST_STORAGE means the daemon's disk
// failed and the run is quarantined there: its own bucket, because the
// loss is a disk and not the network. Anything else (an overloaded or
// sealed nack, the memory bound, a parked block failing its check, the
// flush grace expiring) is a drop. Control frames carry no data to
// lose.
func (n *netSink) settle(it *netItem, code ingest.Code) {
	if it.kind != ingest.MsgChunk {
		return
	}
	n.release(it)
	b := dropped
	switch {
	case code == ingest.CodeOK && it.spilled:
		b = replayed
	case code == ingest.CodeOK:
		b = shipped
	case code == ingest.CodeStorage:
		b = storage
	}
	n.led.Settle(b, it.samples)
}

// next marks the oldest unsent frame sent and returns it, reading a
// parked block back from its trace file; a block that fails its check
// is settled as a drop on the way. ok false means the window is full
// or nothing is unsent.
func (n *netSink) next() (it netItem, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.sent < netWindow && n.head+n.sent < len(n.q) {
		i := n.head + n.sent
		if n.q[i].kind != ingest.MsgChunk || n.q[i].block != nil {
			if n.q[i].kind == ingest.MsgChunk {
				n.held--
			}
			n.sent++
			return n.q[i], true
		}
		it = n.q[i]
		n.mu.Unlock() // the pread must not stall the producer's appends
		block := n.readBack(&it)
		n.mu.Lock()
		n.parked.sub(&it)
		i = n.head + n.sent // the producer may have slid the queue down meanwhile
		if block != nil {
			n.q[i].block = block
			n.sent++
			return n.q[i], true
		}
		n.settle(&it, codeUndelivered)
		n.q = slices.Delete(n.q, i, i+1)
	}
	return netItem{}, false
}

// readBack preads a parked chunk's block from its thread's trace file
// into a pooled buffer and checks it with perf.BlockSamples (PSX2
// extent, payload CRC, declared count); nil means it cannot be read
// back whole. Sender only.
func (n *netSink) readBack(it *netItem) []byte {
	f := n.files[it.thread]
	if f == nil {
		var err error
		if f, err = os.Open(tracePath(n.dir, it.thread)); err != nil {
			return nil
		}
		n.files[it.thread] = f
	}
	block := slices.Grow(n.free.Get()[:0], it.size)[:it.size]
	if _, err := f.ReadAt(block, it.off); err != nil {
		n.free.Put(block)
		return nil
	}
	if k, err := perf.BlockSamples(block); err != nil || k != uint64(it.samples) {
		n.free.Put(block)
		return nil
	}
	return block
}

// acked applies one ack to the frames on the wire. OK is cumulative
// and pops the head; a non-OK ack settles only the frame it names and
// leaves older frames waiting for their own acks.
func (n *netSink) acked(a ingest.Ack) {
	if a.Code == ingest.CodeOverloaded {
		// The server's bounded ingest queue overflowed: downstream is
		// congested, and the governor (when armed) should step the
		// measurement down rather than keep producing into the wall.
		n.overloadedAcks.Add(1)
		if n.gov != nil {
			n.gov.Backpressure()
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	inFlight := n.q[n.head : n.head+n.sent]
	if a.Code == ingest.CodeOK {
		k := 0
		for k < len(inFlight) && inFlight[k].seq <= a.Seq {
			n.settle(&inFlight[k], ingest.CodeOK)
			k++
		}
		clear(inFlight[:k])
		n.head, n.sent = n.head+k, n.sent-k
		if n.head == len(n.q) {
			n.q, n.head = n.q[:0], 0
		}
		return
	}
	if i := slices.IndexFunc(inFlight, func(it netItem) bool { return it.seq == a.Seq }); i >= 0 {
		n.settle(&inFlight[i], a.Code)
		n.q = slices.Delete(n.q, n.head+i, n.head+i+1)
		n.sent--
	}
}

// rewind makes every frame on the wire unsent again, for a new
// connection to resend in order.
func (n *netSink) rewind() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, it := range n.q[n.head : n.head+n.sent] {
		if it.kind == ingest.MsgChunk {
			n.held++
		}
	}
	n.sent = 0
}

// stop is the hard stop the flush grace ends in: one walk over the
// outbox parks every chunk the trace files hold — it stays there,
// accounted as spill-pending, instead of vanishing — and settles the
// rest as undelivered.
func (n *netSink) stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	kept := n.q[:0]
	for _, it := range n.q[n.head:] {
		if it.kind == ingest.MsgChunk && (it.block == nil || n.park(&it)) {
			kept = append(kept, it)
		} else {
			n.settle(&it, codeUndelivered)
		}
	}
	clear(n.q[len(kept):])
	n.q, n.head, n.sent, n.held = kept, 0, 0, 0
}

// inFlight returns how many frames are on the wire and how many are
// queued in all.
func (n *netSink) inFlight() (sent, queued int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, len(n.q) - n.head
}

// onlyParked reports whether the outbox holds parked chunks and no
// block in memory: a backlog a flush need not wait out, since it stays
// on disk either way.
func (n *netSink) onlyParked() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parked.chunks > 0 &&
		!slices.ContainsFunc(n.q[n.head:], func(it netItem) bool { return it.block != nil })
}

// parkedCounts returns the parked chunks and their samples — the
// spill-pending term of the conservation equation.
func (n *netSink) parkedCounts() (chunks, samples uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parked.chunks, n.parked.samples
}

// spilledCounts returns the chunks ever parked and their samples.
func (n *netSink) spilledCounts() (chunks, samples uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.spilled.chunks, n.spilled.samples
}

// shutdown asks the sender to flush and waits out the grace period;
// whatever is still unflushed then is parked or dropped with
// accounting. The sender itself queues the BYE once every data frame
// is acked, so the loss accounting the BYE carries is final, not a
// snapshot taken with frames still in flight. Called from the
// streamer's stop (writer goroutine).
func (n *netSink) shutdown() {
	close(n.closing)
	finished := make(chan struct{})
	go func() {
		n.wg.Wait()
		close(finished)
	}()
	t := time.NewTimer(netFlushGrace)
	defer t.Stop()
	select {
	case <-finished:
	case <-t.C:
		close(n.done)
		<-finished
	}
	// The sender is gone; release its read handles. Whatever is still
	// parked stays in the trace files, accounted as spill-pending.
	for _, f := range n.files {
		f.Close()
	}
}

// wire is one live connection: frames go out through c, and a reader
// goroutine turns the server's ack stream into a channel the sender
// selects on. The frame format stays ingest's business.
type wire struct {
	c    net.Conn
	acks chan ingest.Ack // closed by the reader when the connection dies
}

// readAcks is the connection's reader goroutine: plain blocking reads,
// every frame into one body, until the connection fails or close severs
// it.
func (w *wire) readAcks(br *bufio.Reader) {
	defer close(w.acks)
	var body []byte
	for {
		kind, payload, err := ingest.ReadFrameInto(br, &body)
		if err != nil {
			return
		}
		if kind != ingest.MsgAck {
			continue
		}
		// Seq 0 answers a heartbeat (or a frame the server could not
		// parse far enough to name): nothing queued to settle.
		if a, err := ingest.DecodeAck(payload); err == nil && a.Seq != 0 {
			w.acks <- a
		}
	}
}

// close severs the connection and waits the reader out; draining lets
// a reader blocked on a full channel reach the closed socket. Acks
// dropped here are not lost: their frames stay at the outbox's head and
// the next HELLO-ACK (or the resend) settles them.
func (w *wire) close() {
	w.c.Close()
	for range w.acks {
	}
}

// closed reports whether a signal channel has been closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// loop is the sender: connect with interruptible capped backoff, then
// send the outbox's next unsent frame while the window has room and
// otherwise wait — for an ack, a new frame, the heartbeat tick or a
// shutdown signal — keeping at most netWindow frames in flight.
func (n *netSink) loop() {
	defer n.wg.Done()
	var conn *wire
	backoff := netBackoff0
	closing := false
	byeQueued := false
	hb := time.NewTicker(netHeartbeat)
	defer hb.Stop()
	ackWait := time.NewTimer(netAckWait)
	defer ackWait.Stop()

	hangUp := func() {
		if conn != nil {
			conn.close()
			conn = nil
		}
	}
	defer hangUp()

	for {
		if closed(n.done) {
			hangUp()
			n.stop()
			return
		}
		closing = closing || closed(n.closing)
		// The shutdown stage still ahead: before it the waits below
		// collapse the moment closing is signalled; while flushing only
		// the hard stop interrupts, so the flush keeps its pacing.
		stop := n.closing
		if closing {
			stop = n.done
		}

		if conn == nil {
			c, lastSeq, err := n.connect()
			if err != nil {
				// A flush may stop here once only parked chunks are left:
				// they stay on disk as the spill-pending remainder either
				// way (the run is incomplete, so the BYE is not worth
				// waiting for). Anything still in memory, the BYE
				// included: keep retrying, bounded by the flush grace, so
				// the server can seal the run complete.
				if closing && n.onlyParked() {
					return
				}
				backoff = waitBackoff(stop, backoff, netBackoffCap)
				continue
			}
			conn = c
			backoff = netBackoff0
			n.connects.Add(1)
			// The HELLO-ACK is one cumulative OK ack for everything the
			// server accepted on earlier connections; the rest of the
			// head is resent in order.
			n.acked(ingest.Ack{Seq: lastSeq, Code: ingest.CodeOK})
			n.rewind()
			continue
		}

		it, ok := n.next()
		if ok {
			if err := n.send(conn, &it); err != nil {
				hangUp()
			}
			continue
		}
		sent, queued := n.inFlight()
		if closing && queued == 0 {
			if byeQueued {
				return // everything flushed, BYE included
			}
			// Every data frame is settled, so the loss accounting is
			// final: queue the BYE that carries it.
			n.enqueue(netItem{kind: ingest.MsgBye, seq: n.seq.Add(1)})
			byeQueued = true
			continue
		}
		// Nothing to send right now. At a full window, or while
		// flushing, the only way forward is an ack: bound that wait and
		// treat a timeout as a dead connection (the resend path makes
		// that safe). Otherwise a new frame may arrive too.
		var timeout <-chan time.Time
		wake := n.wake
		if closing || sent >= netWindow {
			if !ackWait.Stop() {
				select {
				case <-ackWait.C:
				default:
				}
			}
			ackWait.Reset(netAckWait)
			timeout, wake = ackWait.C, nil
		}
		select {
		case a, ok := <-conn.acks:
			if ok {
				n.acked(a)
			} else {
				hangUp()
			}
		case <-wake:
		case <-timeout:
			hangUp()
		case <-hb.C:
			if err := conn.write(ingest.MsgHeartbeat, nil); err != nil {
				hangUp()
			}
		case <-stop:
		}
	}
}

// connect performs one dial + HELLO handshake attempt and starts the
// connection's ack reader.
func (n *netSink) connect() (*wire, uint64, error) {
	c, err := n.dial(n.addr)
	if err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(c)
	lastSeq, err := handshake(c, br, n.hello)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	// One ack per frame in flight, so the reader never waits on the
	// sender in normal operation.
	conn := &wire{c: c, acks: make(chan ingest.Ack, netWindow)}
	go conn.readAcks(br)
	return conn, lastSeq, nil
}

// handshake sends HELLO and reads the HELLO-ACK, bounded, returning
// the last sequence number the server has accepted for this run.
func handshake(c net.Conn, br *bufio.Reader, h ingest.Hello) (uint64, error) {
	c.SetDeadline(time.Now().Add(netDialTimeout))
	defer c.SetDeadline(time.Time{})
	if err := ingest.WriteFrame(c, ingest.MsgHello, ingest.EncodeHello(h)); err != nil {
		return 0, err
	}
	kind, payload, err := ingest.ReadFrame(br)
	if err != nil {
		return 0, err
	}
	if kind != ingest.MsgHelloAck {
		return 0, fmt.Errorf("tool: ingest: unexpected frame kind %d for HELLO", kind)
	}
	ha, err := ingest.DecodeHelloAck(payload)
	if err != nil {
		return 0, err
	}
	if ha.Code != ingest.CodeOK {
		return 0, fmt.Errorf("tool: ingest: server refused HELLO: %v", ha.Code)
	}
	return ha.LastSeq, nil
}

// write sends one frame whole, bounded.
func (w *wire) write(kind uint8, payload []byte) error {
	w.c.SetWriteDeadline(time.Now().Add(netWriteTimeout))
	return ingest.WriteFrame(w.c, kind, payload)
}

// send encodes and writes one data frame. A chunk's block is copied
// once, into the frame buffer the sender goroutine owns.
func (n *netSink) send(conn *wire, it *netItem) error {
	switch it.kind {
	case ingest.MsgChunk:
		n.frame = ingest.AppendChunkFrame(n.frame[:0], ingest.Chunk{
			Seq:     it.seq,
			Thread:  it.thread,
			Samples: it.samples,
			Block:   it.block,
		})
		conn.c.SetWriteDeadline(time.Now().Add(netWriteTimeout))
		_, err := conn.c.Write(n.frame)
		return err
	case ingest.MsgSeal:
		return conn.write(ingest.MsgSeal,
			ingest.EncodeSeal(ingest.Seal{Seq: it.seq, Thread: it.thread}))
	case ingest.MsgBye:
		return conn.write(ingest.MsgBye, ingest.EncodeBye(n.bye(it.seq)))
	}
	return fmt.Errorf("tool: ingest: unknown frame kind %d", it.kind)
}

// bye is the ledger's wire form. The sender only synthesizes the BYE
// once every data frame is settled, so these counters are the run's
// final accounting (and re-encoding on a resend reads the same values).
func (n *netSink) bye(seq uint64) ingest.Bye {
	y := ingest.Bye{Seq: seq}
	y.Produced, _ = n.led.Taken()
	y.Dropped, y.DroppedSamples = n.led.Settled(dropped)
	y.Replayed, _ = n.led.Settled(replayed)
	y.Spilled, _ = n.spilledCounts()
	return y
}
