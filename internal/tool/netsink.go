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
	"goomp/internal/ingest"
)

// The network sink ships the streamer's staged trace blocks to a psxd
// ingestion daemon over the framed ingest wire protocol. It obeys the
// same invariants as the rest of the storage pipeline:
//
//   - A recording thread is never blocked: chunks reach the sink
//     through the streamer's writer goroutine, and the sink's own
//     hand-off is a bounded queue with a non-blocking push — overflow
//     is dropped with exact chunk/sample accounting.
//   - The connection manager reconnects with capped, interruptible
//     backoff (the same waitBackoff helper the file streamer's retry
//     loop uses, so Detach never stalls behind a sleeping sender).
//   - Every data frame carries a session-monotonic sequence number and
//     stays in an unacknowledged tail until the server acks it; on
//     reconnect the server reports the last sequence it accepted and
//     the sink resends only the tail beyond it. A frame torn by a
//     mid-chunk disconnect was never acked, so it is resent whole.
//   - An OK ack is cumulative: it settles every frame up to its
//     sequence number. A non-OK ack settles only its own frame — a
//     durable daemon nacks from its connection handler at once but
//     acks OK only after the group commit, so a nack can overtake the
//     OK acks of older frames, and those must stay in the tail.
//   - When the server stays dead the sink degrades instead of growing:
//     the bounded pending queue is the in-memory retention path. With
//     a file sink configured alongside (Options.StreamDir), the staged
//     bytes are on local disk regardless, so everything beyond the
//     queue spills — an index into the trace files, store-and-forward —
//     and replays in sequence order on reconnect: an outage longer than
//     the queue degrades to disk, not to loss. Only past the spill
//     bound, for a block not on local disk, or without a file sink are
//     frames discarded, with exact accounting. The network edge only
//     ever adds delivery, never risk.
//   - Downstream congestion feeds the overhead governor: an OVERLOADED
//     ack from the server, or the spill engaging at all, signals
//     backpressure so the governor can step the measurement down
//     instead of producing data the system cannot move.
//   - Every chunk ship takes is settled exactly once, by settle, into
//     one bucket of the sink's ledger (ingest.Ledger):
//     produced == shipped + replayed + dropped + storage + spill-pending.

const (
	netPendingDepth = 256                   // bounded outgoing frame queue
	netWindow       = 64                    // max unacked frames in flight
	netDialTimeout  = 2 * time.Second       // dial + HELLO handshake bound
	netWriteTimeout = 2 * time.Second       // per-frame write bound
	netAckWait      = 2 * time.Second       // ack wait at a full window or while flushing
	netBackoff0     = 25 * time.Millisecond // first reconnect backoff step
	netBackoffCap   = 2 * time.Second       // reconnect backoff cap
	netHeartbeat    = time.Second           // idle keepalive period
	netFlushGrace   = 3 * time.Second       // stop-time flush deadline
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
	replayed                      // acked CodeOK after the spill detour
	dropped                       // never delivered: overflow, nack, parked block failing its check, unflushed at stop
	storage                       // refused INGEST_STORAGE: the daemon's disk failed, not the network
)

// netItem is one queued wire frame. spilled marks a frame that took
// the on-disk detour: its eventual ack counts as replayed, not
// shipped, so the conservation equation separates the two paths. off
// is where a chunk's block sits in its thread's local trace file, −1
// when it is not on local disk.
type netItem struct {
	kind    uint8
	seq     uint64
	thread  int32
	samples uint32
	block   []byte
	spilled bool
	off     int64
}

// netSink is the connection manager plus bounded shipping queue.
type netSink struct {
	addr  string
	hello ingest.Hello
	dial  func(addr string) (net.Conn, error)

	pending chan *netItem
	closing chan struct{} // shutdown requested: flush then exit
	done    chan struct{} // flush grace expired: drop and exit
	wg      sync.WaitGroup

	spill *spillIndex       // nil unless a file sink (Options.StreamDir) is set
	gov   *degrade.Governor // nil unless the overhead governor is on

	seq   atomic.Uint64 // last assigned sequence number
	frame []byte        // the sender's CHUNK frame buffer, reused frame after frame

	led            *ingest.Ledger // every chunk ship takes, settled exactly once
	overloadedAcks atomic.Uint64  // INGEST_OVERLOADED acks seen (governor input)
	connects       atomic.Uint64  // successful connections (reconnects = connects-1)
}

// startNetSink builds and starts the sink's sender goroutine. gov may
// be nil (no overhead governor).
func startNetSink(opts *Options, gov *degrade.Governor) *netSink {
	host, _ := os.Hostname()
	run := opts.IngestRun
	if run == "" {
		run = fmt.Sprintf("%s-%d-%d", host, os.Getpid(), time.Now().UnixNano())
	}
	var flags uint32
	if opts.IngestDurable {
		// Durable acks: the server acknowledges a frame only once its
		// group commit reached disk, so our unacked tail is exactly what
		// a daemon crash can lose — and what the reconnect resends.
		flags |= ingest.FlagDurable
	}
	depth := opts.IngestPendingDepth
	if depth <= 0 {
		depth = netPendingDepth
	}
	n := &netSink{
		addr: opts.IngestAddr,
		hello: ingest.Hello{
			Version: ingest.ProtoVersion,
			Run:     run,
			Host:    host,
			PID:     uint64(os.Getpid()),
			Flags:   flags,
		},
		dial:    opts.DialIngest,
		pending: make(chan *netItem, depth),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		gov:     gov,
		led:     ingest.NewLedger("ingest produced", "shipped", "replayed", "dropped", "storage"),
	}
	if n.dial == nil {
		n.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, netDialTimeout)
		}
	}
	if opts.StreamDir != "" {
		n.spill = newSpillIndex(opts.StreamDir, opts.SpillBytes)
		n.led.Held = n.spill.pendingCounts
	}
	n.wg.Add(1)
	go n.loop()
	return n
}

// ship queues one staged trace block; off is where the file sink wrote
// it (−1: not on local disk). Called only from the streamer's writer
// goroutine; never blocks — a full queue spills when the block is in a
// local trace file, and only past the spill bound (or without one) is
// the block dropped, with exact accounting either way.
func (n *netSink) ship(thread int32, samples uint32, block []byte, off int64) {
	n.led.Take(samples)
	n.enqueue(&netItem{
		kind:    ingest.MsgChunk,
		seq:     n.seq.Add(1),
		thread:  thread,
		samples: samples,
		block:   block,
		off:     off,
	})
}

// seal queues a thread's end-of-stream marker.
func (n *netSink) seal(thread int32) {
	n.enqueue(&netItem{kind: ingest.MsgSeal, seq: n.seq.Add(1), thread: thread})
}

// enqueue routes one frame, preserving global sequence order across
// the two paths: a frame enters the channel only while the spill
// backlog is empty, and the sender (next) empties the channel before
// it touches the spill, so every channel frame is older than every
// spilled frame. A frame that fits neither is dropped with accounting.
func (n *netSink) enqueue(it *netItem) {
	overflow := false
	if n.spill == nil || n.spill.pending() == 0 {
		select {
		case n.pending <- it:
			return
		default:
			overflow = true
		}
	}
	if !n.park(it) {
		n.settle(it, codeUndelivered)
		return
	}
	if overflow && n.gov != nil {
		// The spill engaging is itself a congestion signal: the
		// in-memory queue was not enough.
		n.gov.Backpressure()
	}
}

// park indexes one frame in the spill; false means there is no spill,
// it is full, or the chunk is not on local disk.
func (n *netSink) park(it *netItem) bool {
	return n.spill != nil && n.spill.add(it)
}

// settle books where one frame ended up; every path that lets go of a
// frame calls it, exactly once per frame. OK means delivered and
// acknowledged — replayed if the chunk took the spill detour, shipped
// otherwise. INGEST_STORAGE means the daemon's disk failed and the run
// is quarantined there: its own bucket, because the loss is a disk and
// not the network. Anything else (an overloaded or sealed nack, queue
// overflow, a parked block failing its check, the flush grace
// expiring) is a drop. Control frames carry no data to lose.
func (n *netSink) settle(it *netItem, code ingest.Code) {
	if it.kind != ingest.MsgChunk {
		return
	}
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

// shutdown asks the sender to flush and waits out the grace period;
// whatever is still unflushed then is dropped with accounting. The
// sender itself synthesizes the BYE once every data frame is acked, so
// the loss accounting the BYE carries is final, not a snapshot taken
// with frames still in flight. Called from the streamer's stop (writer
// goroutine).
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
	if n.spill != nil {
		// The sender is gone; release handles. Whatever is still parked
		// stays in the trace files and is accounted as spilled-pending.
		n.spill.close()
	}
}

// wire is one live connection: frames go out through c, and a reader
// goroutine turns the server's ack stream into a channel the sender
// selects on. The frame format stays ingest's business.
type wire struct {
	c    net.Conn
	acks chan ingest.Ack // closed by the reader when the connection dies
}

// readAcks is the connection's reader goroutine: plain blocking reads
// until the connection fails or close severs it.
func (w *wire) readAcks(br *bufio.Reader) {
	defer close(w.acks)
	for {
		kind, payload, err := ingest.ReadFrame(br)
		if err != nil {
			return
		}
		if kind != ingest.MsgAck {
			continue
		}
		// Seq 0 answers a heartbeat (or a frame the server could not
		// parse far enough to name): nothing in the tail to settle.
		if a, err := ingest.DecodeAck(payload); err == nil && a.Seq != 0 {
			w.acks <- a
		}
	}
}

// close severs the connection and waits the reader out; draining lets
// a reader blocked on a full channel reach the closed socket. Acks
// dropped here are not lost: their frames stay in the unacked tail and
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

// loop is the sender: connect with interruptible capped backoff,
// resend the unacknowledged tail, then send the next frame while the
// window has room and otherwise wait — for an ack, a new frame, the
// heartbeat tick or a shutdown signal — keeping at most netWindow
// frames in flight.
func (n *netSink) loop() {
	defer n.wg.Done()
	var conn *wire
	var unacked []*netItem
	backoff := netBackoff0
	closing := false
	byeSent := false
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
			n.giveUp(unacked)
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
				// With nothing left in memory a flush may stop here: after
				// the BYE there is nothing to say, and a spilled backlog
				// stays on disk as the spill-pending remainder (the run is
				// incomplete either way, so the BYE is not worth waiting
				// for). Everything delivered but the BYE still owed: keep
				// retrying, bounded by the flush grace, so the server can
				// seal the run complete.
				if closing && len(unacked) == 0 && len(n.pending) == 0 &&
					(byeSent || (n.spill != nil && n.spill.pending() > 0)) {
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
			// tail is resent in order.
			unacked = n.acked(unacked, ingest.Ack{Seq: lastSeq, Code: ingest.CodeOK})
			for _, it := range unacked {
				if err := n.send(conn, it); err != nil {
					hangUp()
					break
				}
			}
			continue
		}

		var it *netItem
		if len(unacked) < netWindow {
			it = n.next()
			if it == nil && closing && len(unacked) == 0 {
				if byeSent {
					return // everything flushed, BYE included
				}
				// Every data frame is settled, so the loss accounting is
				// final: send the BYE that carries it.
				it = &netItem{kind: ingest.MsgBye, seq: n.seq.Add(1)}
				byeSent = true
			}
		}
		if it == nil {
			// Nothing to send right now. At a full window, or while
			// flushing, the only way forward is an ack: bound that wait
			// and treat a timeout as a dead connection (the resend path
			// makes that safe). Otherwise a new frame may arrive too; the
			// spill is empty here (next just said so), so a frame off the
			// channel is still the oldest one there is.
			var timeout <-chan time.Time
			pending := n.pending
			if len(unacked) >= netWindow || closing {
				if !ackWait.Stop() {
					select {
					case <-ackWait.C:
					default:
					}
				}
				ackWait.Reset(netAckWait)
				timeout, pending = ackWait.C, nil
			}
			select {
			case a, ok := <-conn.acks:
				if ok {
					unacked = n.acked(unacked, a)
				} else {
					hangUp()
				}
			case it = <-pending:
			case <-timeout:
				hangUp()
			case <-hb.C:
				if err := conn.write(ingest.MsgHeartbeat, nil); err != nil {
					hangUp()
				}
			case <-stop:
			}
		}
		if it != nil {
			unacked = append(unacked, it)
			if err := n.send(conn, it); err != nil {
				hangUp()
			}
		}
	}
}

// next picks the frame that follows everything already sent, without
// waiting: the pending channel first, then the spill backlog (see
// enqueue for why that is sequence order). Parked blocks that fail
// their check are settled as drops on the way.
func (n *netSink) next() *netItem {
	select {
	case it := <-n.pending:
		return it
	default:
	}
	for n.spill != nil {
		it, intact := n.spill.next()
		if it == nil || intact {
			return it
		}
		n.settle(it, codeUndelivered)
	}
	return nil
}

// acked applies one ack to the unacked tail. OK is cumulative; a
// non-OK ack settles only the frame it names and leaves older frames
// waiting for their own acks.
func (n *netSink) acked(unacked []*netItem, a ingest.Ack) []*netItem {
	if a.Code == ingest.CodeOK {
		i := 0
		for i < len(unacked) && unacked[i].seq <= a.Seq {
			n.settle(unacked[i], ingest.CodeOK)
			i++
		}
		return unacked[i:]
	}
	if a.Code == ingest.CodeOverloaded {
		// The server's bounded ingest queue overflowed: downstream is
		// congested, and the governor (when armed) should step the
		// measurement down rather than keep producing into the wall.
		n.overloadedAcks.Add(1)
		if n.gov != nil {
			n.gov.Backpressure()
		}
	}
	i := slices.IndexFunc(unacked, func(it *netItem) bool { return it.seq == a.Seq })
	if i < 0 {
		return unacked
	}
	n.settle(unacked[i], a.Code)
	return slices.Delete(unacked, i, i+1)
}

// giveUp is the terminal path for the in-memory frames the flush grace
// expired on: chunks are parked in the spill — they stay in the trace
// files, accounted as spill-pending, instead of vanishing — and what the
// spill cannot take is dropped. This runs after the sender has stopped
// replaying, so the order it parks them in no longer matters: nothing
// replays the index after the sink shuts down.
func (n *netSink) giveUp(unacked []*netItem) {
	abandon := func(it *netItem) {
		if it.kind != ingest.MsgChunk || !n.park(it) {
			n.settle(it, codeUndelivered)
		}
	}
	for _, it := range unacked {
		abandon(it)
	}
	for {
		select {
		case it := <-n.pending:
			abandon(it)
		default:
			return
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
	if n.spill != nil {
		y.Spilled, _ = n.spill.stats()
	}
	return y
}
