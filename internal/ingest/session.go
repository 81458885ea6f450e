package ingest

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"goomp/internal/perf"
)

// The session half of a run (the storage half is store.go): what a
// connection handler does with a frame before any byte of it is
// written. It decides — the sequencing rules are one function of run
// state and frame — enqueues under bounded backpressure, and answers
// every frame the writer will not. It touches no file and imports no
// os. The measurement pipeline's relay invariants hold at this edge
// too: a handler under pressure stalls only its own reads, then sheds
// with exact accounting; it never blocks the accept loop or another
// run's ingest, and one run's slow disk never touches another's stream.

// connSender serializes every server→client frame on one connection:
// the conn handler's immediate acks and the writer goroutine's
// deferred durable acks share it. After Kill nothing is sent — a
// crashed daemon cannot ack.
type connSender struct {
	s  *Server
	mu sync.Mutex
	c  net.Conn
}

func (cs *connSender) send(kind uint8, payload []byte) error {
	if cs.s.killed.Load() {
		return errors.New("ingest: server killed")
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.c.SetWriteDeadline(time.Now().Add(ackWriteDeadline))
	err := WriteFrame(cs.c, kind, payload)
	cs.c.SetWriteDeadline(time.Time{})
	return err
}

func (cs *connSender) sendAck(a Ack) error {
	return cs.send(MsgAck, EncodeAck(a))
}

// handleConn speaks one client session: HELLO first, then data frames,
// each answered with a typed ack. A read error (including a frame torn
// by a mid-chunk disconnect) ends the session; the torn frame was
// never acked, so the client resends it on reconnect and the per-run
// sequence numbers make the resend idempotent. Every non-OK ack leaves
// from here, at once; the OK ack of a durable run's accepted frame is
// sent by the run's writer goroutine after the group commit covering
// the frame has reached disk.
func (s *Server) handleConn(c net.Conn) {
	cs := &connSender{s: s, c: c}
	br := bufio.NewReader(c)
	// Frames are read into one pooled body, over and over; only a chunk
	// that is enqueued takes its body along, and the handler a fresh one.
	body := frameBodies.Get()
	defer func() { frameBodies.Put(body) }()
	r := s.hello(cs, br, body)
	if r == nil {
		return
	}
	for {
		kind, payload, err := s.readFrameDeadline(c, br, body)
		if err != nil {
			return
		}
		s.frames.Add(1)
		r.lastSeen.Store(time.Now().UnixNano())
		it, ack, data := s.decodeFrame(kind, payload)
		if data {
			it.sender = cs
			if it.chunk() {
				it.body = body
			}
			v, queued := r.admit(it)
			if queued && v == vAccept && it.body != nil {
				body = frameBodies.Get() // the writer has ours now
			}
			if queued && r.durable {
				continue // the writer acks after the group commit
			}
			ack = Ack{Seq: it.seq, Code: CodeOK}
			if !queued {
				ack.Code, _ = v.unqueued()
			}
		}
		if err := cs.sendAck(ack); err != nil {
			return
		}
	}
}

// hello reads the session's first frame, which must be a HELLO this
// daemon can serve, resolves its run and answers with the run's resume
// point. A nil run means the session is over (refused, with the typed
// HELLO-ACK already sent, or dead).
func (s *Server) hello(cs *connSender, br *bufio.Reader, body *[]byte) *run {
	refuse := func(code Code) *run {
		cs.send(MsgHelloAck, EncodeHelloAck(HelloAck{Code: code}))
		return nil
	}
	kind, payload, err := s.readFrameDeadline(cs.c, br, body)
	if err != nil {
		return nil
	}
	if kind != MsgHello {
		s.badFrames.Add(1)
		return refuse(CodeSequence)
	}
	h, err := DecodeHello(payload)
	if err != nil {
		s.badFrames.Add(1)
		return refuse(CodeBadFrame)
	}
	if h.Version != ProtoVersion {
		return refuse(CodeUnsupported)
	}
	r, err := s.findOrCreateRun(h)
	if err != nil {
		return refuse(CodeBadFrame)
	}
	ack := HelloAck{Code: CodeOK, LastSeq: r.lastSeq.Load()}
	if r.durable {
		// Durable resume point: only what is on disk counts, so a
		// restarted daemon hands back the journal-recovered sequence and
		// the client resends the lost tail.
		ack.LastSeq = r.st.syncedSeq.Load()
		if h.Flags != 0 {
			// Echo the grant only to a client that negotiated flags
			// itself: a legacy (pre-flags) HELLO must get the legacy
			// 12-byte HELLO-ACK back, or its decoder refuses the
			// handshake — even when the run was created durable by a
			// newer client sharing the run ID.
			ack.Flags = FlagDurable
		}
	}
	if cs.send(MsgHelloAck, EncodeHelloAck(ack)) != nil {
		return nil
	}
	return r
}

// readFrameDeadline reads one frame into *body under the heartbeat
// deadline (Options.HeartbeatTimeout has why a timed-out read is a
// half-open connection, and why reaping it loses nothing).
func (s *Server) readFrameDeadline(c net.Conn, br *bufio.Reader, body *[]byte) (uint8, []byte, error) {
	if d := s.opts.HeartbeatTimeout; d > 0 {
		c.SetReadDeadline(time.Now().Add(d))
	}
	kind, payload, err := ReadFrameInto(br, body)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.reaped.Add(1)
		}
	}
	return kind, payload, err
}

// decodeFrame turns one post-HELLO frame into the item it asks its run
// to take (data), or — a heartbeat, a second HELLO, a frame that does
// not parse — into the ack that answers it on the spot.
func (s *Server) decodeFrame(kind uint8, payload []byte) (it item, ack Ack, data bool) {
	bad := Ack{Code: CodeBadFrame}
	switch kind {
	case MsgChunk:
		ck, err := DecodeChunk(payload)
		if err != nil {
			break
		}
		// The frame's declared sample count feeds the journal and the
		// registry; verify it against the block bytes themselves
		// (BlockSamples walks both formats — a fixed-record-width
		// division would miscount every v2 block) instead of trusting
		// the header.
		if n, err := perf.BlockSamples(ck.Block); err != nil || n != uint64(ck.Samples) {
			bad.Seq = ck.Seq
			break
		}
		return item{seq: ck.Seq, thread: ck.Thread, samples: ck.Samples, block: ck.Block}, ack, true
	case MsgSeal:
		if sl, err := DecodeSeal(payload); err == nil {
			return item{seq: sl.Seq, thread: sl.Thread, seal: true}, ack, true
		}
	case MsgBye:
		if y, err := DecodeBye(payload); err == nil {
			return item{seq: y.Seq, bye: true, loss: y.Loss()}, ack, true
		}
	case MsgHeartbeat:
		s.heartbeats.Add(1)
		return it, Ack{Code: CodeOK}, false
	case MsgHello:
		return it, Ack{Code: CodeSequence}, false
	default:
		bad.Code = CodeUnsupported
	}
	s.badFrames.Add(1)
	return it, bad, false
}

// verdict is what the sequencing rules say about one data frame.
type verdict uint8

const (
	// vAccept: a new frame. It is enqueued and the sequence advances —
	// or the queue stays full past the backpressure window and it is
	// shed: the sequence does not advance, so a resend could still land.
	vAccept verdict = iota
	// vDuplicate: accepted on an earlier connection (and, on a durable
	// run, on disk): acked OK again, not applied again.
	vDuplicate
	// vDeferred: a durable run's duplicate whose original (chunk, seal
	// or BYE) is accepted but still ahead in the queue, not on disk. The
	// ack must wait for the group commit that covers the original, so
	// an ack-only marker rides the queue behind it.
	vDeferred
	// vSealed: the run is complete (only a BYE may follow a BYE, and
	// none once the run is retired), or the GC freed it and its
	// incarnation is over.
	vSealed
	// vQuarantined: storage is gone for this run. A chunk is refused
	// with the typed code, so the client books the loss under storage
	// and not under generic drops; seals and the BYE still pass, so the
	// run can complete and be GC'd.
	vQuarantined
)

// sequence applies the sequencing rules to one data frame: a function
// of the run's state and the frame that changes neither. Callers hold
// seqMu. A retired run has no writer and needs none: everything up to
// lastSeq is stored (synced, on a durable run), so a resend is a
// duplicate and anything newer is refused.
func (r *run) sequence(it *item) verdict {
	switch {
	case r.gone:
		return vSealed
	case r.retired:
		if it.seq != 0 && it.seq <= r.lastSeq.Load() {
			return vDuplicate
		}
		return vSealed
	case it.seq != 0 && it.seq <= r.lastSeq.Load():
		if r.durable && it.seq > r.st.syncedSeq.Load() {
			return vDeferred
		}
		return vDuplicate
	case r.complete.Load() && !it.bye:
		return vSealed
	case r.st.broken.Load() && !it.bye && !it.seal:
		return vQuarantined
	}
	return vAccept
}

// unqueued is how a frame the writer never gets is answered: the ack
// its session sends, and the ledger bucket a chunk settles into. For
// vAccept and vDeferred that is the shed case — the queue was full.
func (v verdict) unqueued() (Code, Bucket) {
	answers := [...]struct {
		code Code
		fate Bucket
	}{
		vAccept:      {CodeOverloaded, shed},
		vDuplicate:   {CodeOK, duplicate},
		vDeferred:    {CodeOverloaded, duplicate},
		vSealed:      {CodeSealed, refused},
		vQuarantined: {CodeStorage, storage},
	}
	return answers[v].code, answers[v].fate
}

// admit takes one data frame into the run: the ledger takes a chunk,
// the sequencing rules decide, the frame (or its ack-only marker) is
// enqueued if they say so, and a chunk the writer does not get is
// settled here. queued: the writer has the frame or its marker — and,
// on a durable run, owes the ack.
func (r *run) admit(it item) (v verdict, queued bool) {
	defer r.wakeIfSealed() // after the unlock below
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	if it.chunk() {
		r.led.Take(it.samples)
	}
	switch v = r.sequence(&it); v {
	case vAccept:
		if queued = r.enqueue(it); queued && it.seq != 0 {
			r.lastSeq.Store(it.seq)
		}
	case vDeferred:
		queued = r.enqueue(item{seq: it.seq, ackOnly: true, sender: it.sender})
		fallthrough
	case vDuplicate:
		r.s.duplicates.Add(1)
	}
	if it.chunk() && !(queued && v == vAccept) {
		_, fate := v.unqueued()
		r.led.Settle(fate, it.samples)
	}
	return v, queued
}

// enqueue places it on the run's queue, stalling up to the
// backpressure window when full. Control frames (thread seals and the
// BYE) are never shed: they are rare, tiny, and carry the run's seal
// state and final client accounting — for them the stall holds until
// the writer drains a slot (TCP backpressure on the one flooding
// client) or the daemon shuts down. Callers hold seqMu; the writer
// drains r.q without it, so the wait always terminates.
func (r *run) enqueue(it item) bool {
	select {
	case r.q <- it:
		return true
	default:
	}
	var window <-chan time.Time
	if !it.seal && !it.bye {
		// Queue full: hold this connection's reads for the backpressure
		// window (the kernel's TCP window then pushes back on the client),
		// and only then drop.
		t := time.NewTimer(r.s.opts.BackpressureWait)
		defer t.Stop()
		window = t.C
	}
	select {
	case r.q <- it:
		return true
	case <-window:
		return false
	case <-r.s.done:
		return false
	}
}
