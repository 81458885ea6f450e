package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/perf"
)

// The server applies the measurement pipeline's relay invariants at
// the network edge: every run gets its own ingest goroutine fed by a
// bounded queue, a conn handler under pressure first stops reading
// (TCP backpressure) for a short window and then drops the frame with
// exact chunk/sample accounting and an explicit CodeOverloaded ack —
// it never blocks the accept loop or another run's ingest. One run's
// slow disk never touches another run's stream.
//
// Storage is crash-safe (see journal.go): every accepted block is
// recorded block-then-journal, and a client that negotiated durable
// acks (FlagDurable) is acknowledged only after the group commit that
// covers its frame has reached disk. A storage failure (ENOSPC, EIO)
// quarantines only the failing run — its chunks are refused with the
// typed CodeStorage while every other run keeps flowing.

// Defaults; Options overrides.
const (
	defaultMaxConns         = 128
	defaultQueueDepth       = 64
	defaultBackpressureWait = 5 * time.Millisecond
	defaultHousekeep        = 30 * time.Second
	defaultHeartbeatTimeout = 30 * time.Second

	// maxBatch bounds one group commit: the writer drains at most this
	// many queued items before syncing and releasing their durable acks.
	maxBatch = 32

	// ackWriteDeadline bounds a writer goroutine's ack send so a stalled
	// client socket cannot wedge the group-commit loop.
	ackWriteDeadline = 2 * time.Second
)

// codeDeferred is an internal sentinel (never on the wire): the frame
// was enqueued with its ack deferred to the writer's group commit.
const codeDeferred Code = ^Code(0)

// Options configures a Server.
type Options struct {
	// Dir is the root directory; each run writes into its own
	// subdirectory of per-thread trace.N.psxt files plus its journal and
	// manifest.
	Dir string

	// MaxConns bounds concurrent client connections; beyond it a new
	// connection is refused with a CodeOverloaded HELLO-ACK. Zero means
	// the default (128).
	MaxConns int

	// QueueDepth bounds each run's ingest queue (frames). Zero means
	// the default (64).
	QueueDepth int

	// BackpressureWait is how long a connection handler waits on a full
	// ingest queue — stalling its own reads, which is TCP backpressure —
	// before dropping the frame with accounting. Zero means the default
	// (5ms).
	BackpressureWait time.Duration

	// HeartbeatTimeout reaps half-open connections: clients heartbeat
	// every second while idle, so a connection with no readable frame
	// for this long is dead — its handler (and the conn's hold on MaxConns
	// and the run's writer) is released, counted in the reaped-conns
	// metric. A live client that lost this conn reconnects and resumes
	// from the acked sequence, so reaping never loses data. Zero means
	// the default (30s); negative disables reaping.
	HeartbeatTimeout time.Duration

	// Fsync selects when writer goroutines sync: at thread/run seals
	// (the zero value), never, or every N chunks. Durable-ack clients
	// are always synced before their acks regardless of this policy.
	Fsync FsyncPolicy

	// RetainBytes, when positive, caps the total bytes stored under
	// Dir: the housekeeper garbage-collects complete runs oldest-first
	// until the total is back under the cap.
	RetainBytes int64

	// RetainAge, when positive, garbage-collects complete runs whose
	// last activity is older than this.
	RetainAge time.Duration

	// HousekeepInterval is the retention scan cadence. Zero means the
	// default (30s). Housekeeping only runs when RetainBytes or
	// RetainAge is set.
	HousekeepInterval time.Duration

	// ObsAddr, when set, serves the merged observability plane
	// (/metrics, /runs, cross-run /profile) on this host:port.
	ObsAddr string

	// FS, when non-nil, interposes on every persisted byte (fault
	// injection). Nil means the real filesystem.
	FS FS
}

// item is one unit of ingest work handed to a run's writer goroutine.
type item struct {
	seq     uint64
	thread  int32
	samples uint32
	block   []byte
	seal    bool
	bye     bool

	// body, on a chunk, is the pooled frame body block aliases. It
	// travels with the item: the writer puts it back once the block is
	// written and checksummed.
	body *[]byte

	// loss is the client's final loss accounting carried on a BYE
	// frame; the writer records it in the registry and manifest.
	loss ClientLoss

	// ackOnly marks a durable-mode duplicate whose data item is already
	// ahead in the queue: nothing to write, but the ack must still wait
	// for the group commit that covers it.
	ackOnly bool

	// sender, when non-nil, receives this item's ack from the writer
	// after the covering group commit (durable mode). Nil means the
	// conn handler already acked on accept.
	sender *connSender
}

// deferredAck is one durable ack the writer owes after a group commit.
// chunk and samples carry the frame's accounting weight so a
// downgraded ack (sync failure after a clean apply) still counts its
// loss exactly.
type deferredAck struct {
	sender  *connSender
	ack     Ack
	chunk   bool
	samples uint32
}

// run is one instrumented process's registry entry and ingest shard.
type run struct {
	id      string
	host    string
	pid     uint64
	dir     string
	started time.Time
	durable bool // client negotiated FlagDurable at run creation

	s *Server

	q  chan item
	wg sync.WaitGroup

	// seqMu serializes the accept decision (duplicate check + enqueue +
	// sequence advance) when several connections carry one run, and
	// guards gone against the GC.
	seqMu   sync.Mutex
	gone    bool          // GC removed the run; nothing may enqueue
	lastSeq atomic.Uint64 // highest accepted data-frame sequence

	// durableSeq is the highest sequence whose data and journal entry
	// have been synced to disk; in durable mode HELLO-ACK resumes here.
	durableSeq atomic.Uint64

	lastSeen atomic.Int64 // unix nanos of the last frame
	complete atomic.Bool  // BYE processed

	// quarantined: storage failed; chunks are refused with CodeStorage
	// (seal/BYE still pass so the run can complete and be GC'd).
	quarantined atomic.Bool
	salvaged    bool // recovered from journal by a restarted daemon

	// Writer-goroutine-private file state.
	files        map[int32]File
	sizes        map[int32]int64 // current byte length per open file
	dirty        map[int32]bool  // written since last sync
	journal      File
	journalEntry []byte // the entry being written; reused
	journalSize  int64
	journalDirty bool
	journaledSeq uint64 // highest sequence appended to the journal
	chunksSince  int    // chunks since the last sync (every-N policy)
	broken       bool   // writer-side quarantine latch

	// Exact accounting, mirrored into /metrics and /runs.
	chunks         atomic.Uint64
	samples        atomic.Uint64
	bytes          atomic.Uint64
	droppedChunks  atomic.Uint64 // queue overflow past the backpressure window
	droppedSamples atomic.Uint64
	storageChunks  atomic.Uint64 // refused or lost to storage failure
	storageSamples atomic.Uint64
	fsyncs         atomic.Uint64
	sealedThreads  atomic.Int64

	// Client-reported loss accounting from the BYE frame: what the
	// producing process dropped, spilled to its store-and-forward log,
	// and replayed before sealing the run. Never nil; all zero for runs
	// whose BYE never arrived.
	client atomic.Pointer[ClientLoss]

	errMu sync.Mutex
	errs  []error
}

// Server is the psxd ingestion service.
type Server struct {
	lis  net.Listener
	opts Options
	fs   FS
	done chan struct{}

	// deadCh closed by Kill: the simulated crash. Writers abandon their
	// files without closing or syncing; acks stop.
	deadCh   chan struct{}
	deadOnce sync.Once
	killed   atomic.Bool

	closeOnce sync.Once
	drainOnce sync.Once

	mu    sync.Mutex
	runs  map[string]*run
	conns map[net.Conn]struct{}

	connWG  sync.WaitGroup
	houseWG sync.WaitGroup

	obsSrv obsCloser

	started time.Time

	// Fleet accounting.
	liveConns     atomic.Int64
	connsTotal    atomic.Uint64
	refused       atomic.Uint64
	frames        atomic.Uint64
	heartbeats    atomic.Uint64
	duplicates    atomic.Uint64
	badFrames     atomic.Uint64
	reaped        atomic.Uint64 // half-open conns closed by the heartbeat deadline
	salvagedRuns  atomic.Uint64
	gcRuns        atomic.Uint64
	gcBytes       atomic.Uint64
	storedBytes   atomic.Int64 // last housekeeping measurement of Dir
	recoveredRuns atomic.Uint64
}

// obsCloser decouples the server from the obs plane for shutdown.
type obsCloser interface {
	Close() error
	URL() string
}

// Serve binds addr ("host:port"; ":0" picks a free port) and starts
// accepting instrumented processes. Trace data lands under opts.Dir.
// Before listening it recovers every run a previous daemon left
// behind: journals are replayed, torn tails truncated to the last
// valid entry, and salvaged runs re-registered so a reconnecting
// client resumes exactly where the disk state ends.
func Serve(addr string, opts Options) (*Server, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("ingest: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: data dir: %w", err)
	}
	if opts.MaxConns <= 0 {
		opts.MaxConns = defaultMaxConns
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = defaultQueueDepth
	}
	if opts.BackpressureWait <= 0 {
		opts.BackpressureWait = defaultBackpressureWait
	}
	if opts.HousekeepInterval <= 0 {
		opts.HousekeepInterval = defaultHousekeep
	}
	if opts.HeartbeatTimeout == 0 {
		opts.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	s := &Server{
		opts:    opts,
		fs:      fs,
		done:    make(chan struct{}),
		deadCh:  make(chan struct{}),
		runs:    make(map[string]*run),
		conns:   make(map[net.Conn]struct{}),
		started: time.Now(),
	}
	if err := s.recoverRuns(); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	s.lis = lis
	if opts.ObsAddr != "" {
		srv, err := s.startObs(opts.ObsAddr)
		if err != nil {
			lis.Close()
			return nil, err
		}
		s.obsSrv = srv
	}
	if opts.RetainBytes > 0 || opts.RetainAge > 0 {
		s.houseWG.Add(1)
		go s.housekeeper()
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound ingest listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// ObsURL returns the merged obs plane's base URL, or "" when
// Options.ObsAddr was unset.
func (s *Server) ObsURL() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.URL()
}

// Close stops accepting, severs client connections, drains every run's
// ingest queue and closes its files. The returned error joins every
// per-run failure. It waits without bound for writers to drain; use
// CloseWithin to cap the wait.
func (s *Server) Close() error { return s.CloseWithin(0) }

// CloseWithin is Close with a bounded drain: if the writers have not
// finished within d (d > 0), they are abandoned — the daemon is
// exiting anyway, and the journal makes the torn state recoverable —
// and an error reports the missed deadline. d == 0 waits without
// bound.
func (s *Server) CloseWithin(d time.Duration) error {
	s.closeOnce.Do(func() { close(s.done) })
	if s.lis != nil {
		s.lis.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.houseWG.Wait()
	var errs []error
	if s.killed.Load() {
		// Crashed via Kill: writers already abandoned their state, the
		// journal holds the truth. Only the obs plane is left to close.
		if s.obsSrv != nil {
			if err := s.obsSrv.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	s.drainOnce.Do(func() {
		for _, r := range runs {
			close(r.q)
		}
	})
	drained := make(chan struct{})
	go func() {
		for _, r := range runs {
			r.wg.Wait()
		}
		close(drained)
	}()
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-drained:
		case <-t.C:
			// A writer is stuck (most likely inside a stalled sync). Force
			// the rest out through the dead channel and abandon the stuck
			// one; recovery will salvage whatever the journal covers.
			s.deadOnce.Do(func() { close(s.deadCh) })
			errs = append(errs, fmt.Errorf("ingest: drain deadline (%v) exceeded; writers abandoned", d))
		}
	} else {
		<-drained
	}
	for _, r := range runs {
		r.errMu.Lock()
		errs = append(errs, r.errs...)
		r.errMu.Unlock()
	}
	if s.obsSrv != nil {
		if err := s.obsSrv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Kill simulates a daemon crash for recovery testing: the listener and
// every connection drop, no further ack leaves the process, and writer
// goroutines abandon their files without closing, syncing, or sealing
// — exactly the disk state a kill -9 leaves behind. A subsequent
// CloseWithin only tears down the obs plane.
func (s *Server) Kill() {
	if s.killed.Swap(true) {
		return
	}
	s.deadOnce.Do(func() { close(s.deadCh) })
	s.closeOnce.Do(func() { close(s.done) })
	if s.lis != nil {
		s.lis.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		c, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		s.connsTotal.Add(1)
		if s.liveConns.Load() >= int64(s.opts.MaxConns) {
			// Bounded accept: refuse with a typed code instead of letting
			// an unbounded handler population grow. The client treats the
			// refusal as a failed connect and backs off.
			s.refused.Add(1)
			WriteFrame(c, MsgHelloAck, EncodeHelloAck(HelloAck{Code: CodeOverloaded}))
			c.Close()
			continue
		}
		s.liveConns.Add(1)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.liveConns.Add(-1)
				c.Close()
			}()
			s.handleConn(c)
		}()
	}
}

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
// sequence numbers make the resend idempotent. In durable mode the ack
// for an accepted data frame is sent by the run's writer goroutine
// after the group commit covering the frame has reached disk.
func (s *Server) handleConn(c net.Conn) {
	cs := &connSender{s: s, c: c}
	br := bufio.NewReader(c)
	// Frames are read into one pooled body, over and over; only a chunk
	// that is enqueued takes its body along, and the handler a fresh one.
	body := frameBodies.Get().(*[]byte)
	defer func() { frameBodies.Put(body) }()
	// Server-side heartbeat deadline: clients send a heartbeat every
	// second while idle, so a connection that produces nothing readable
	// for the timeout is half-open — the peer is gone without a FIN. A
	// dead read here releases the handler (and its MaxConns slot)
	// instead of holding both forever; the reap is loss-free because
	// nothing unacked is forgotten — a live client reconnects and
	// resumes from the acked sequence.
	kind, payload, err := s.readFrameDeadline(c, br, body)
	if err != nil {
		return
	}
	if kind != MsgHello {
		s.badFrames.Add(1)
		cs.send(MsgHelloAck, EncodeHelloAck(HelloAck{Code: CodeSequence}))
		return
	}
	h, err := DecodeHello(payload)
	if err != nil {
		s.badFrames.Add(1)
		cs.send(MsgHelloAck, EncodeHelloAck(HelloAck{Code: CodeBadFrame}))
		return
	}
	if h.Version != ProtoVersion {
		cs.send(MsgHelloAck, EncodeHelloAck(HelloAck{Code: CodeUnsupported}))
		return
	}
	r, err := s.findOrCreateRun(h)
	if err != nil {
		cs.send(MsgHelloAck, EncodeHelloAck(HelloAck{Code: CodeBadFrame}))
		return
	}
	ack := HelloAck{Code: CodeOK}
	if r.durable {
		// Durable resume point: only what is on disk counts, so a
		// restarted daemon hands back the journal-recovered sequence and
		// the client resends the lost tail.
		ack.LastSeq = r.durableSeq.Load()
		if h.Flags != 0 {
			// Echo the grant only to a client that negotiated flags
			// itself: a legacy (pre-flags) HELLO must get the legacy
			// 12-byte HELLO-ACK back, or its decoder refuses the
			// handshake — even when the run was created durable by a
			// newer client sharing the run ID.
			ack.Flags = FlagDurable
		}
	} else {
		ack.LastSeq = r.lastSeq.Load()
	}
	if err := cs.send(MsgHelloAck, EncodeHelloAck(ack)); err != nil {
		return
	}
	for {
		kind, payload, err := s.readFrameDeadline(c, br, body)
		if err != nil {
			return
		}
		s.frames.Add(1)
		r.lastSeen.Store(time.Now().UnixNano())
		var ack Ack
		switch kind {
		case MsgChunk:
			ck, err := DecodeChunk(payload)
			if err != nil {
				s.badFrames.Add(1)
				ack = Ack{Code: CodeBadFrame}
				break
			}
			// The frame's declared sample count feeds the journal and the
			// registry; verify it against the block bytes themselves
			// (BlockSamples walks both formats — a fixed-record-width
			// division would miscount every v2 block) instead of trusting
			// the header.
			if n, err := perf.BlockSamples(ck.Block); err != nil || n != uint64(ck.Samples) {
				s.badFrames.Add(1)
				ack = Ack{Seq: ck.Seq, Code: CodeBadFrame}
				break
			}
			code, queued := s.accept(r, ck.Seq,
				item{seq: ck.Seq, thread: ck.Thread, samples: ck.Samples, block: ck.Block, body: body, sender: durableSender(r, cs)})
			ack = Ack{Seq: ck.Seq, Code: code}
			if queued {
				body = frameBodies.Get().(*[]byte) // the writer has ours now
			}
		case MsgSeal:
			sl, err := DecodeSeal(payload)
			if err != nil {
				s.badFrames.Add(1)
				ack = Ack{Code: CodeBadFrame}
				break
			}
			code, _ := s.accept(r, sl.Seq,
				item{seq: sl.Seq, thread: sl.Thread, seal: true, sender: durableSender(r, cs)})
			ack = Ack{Seq: sl.Seq, Code: code}
		case MsgBye:
			y, err := DecodeBye(payload)
			if err != nil {
				s.badFrames.Add(1)
				ack = Ack{Code: CodeBadFrame}
				break
			}
			code, _ := s.accept(r, y.Seq,
				item{seq: y.Seq, bye: true, loss: y.Loss(), sender: durableSender(r, cs)})
			ack = Ack{Seq: y.Seq, Code: code}
		case MsgHeartbeat:
			s.heartbeats.Add(1)
			ack = Ack{Code: CodeOK}
		case MsgHello:
			ack = Ack{Code: CodeSequence}
		default:
			s.badFrames.Add(1)
			ack = Ack{Code: CodeUnsupported}
		}
		if ack.Code == codeDeferred {
			continue // the writer acks after the group commit
		}
		if err := cs.sendAck(ack); err != nil {
			return
		}
	}
}

// readFrameDeadline reads one frame into *body under the heartbeat
// deadline; a timed-out read is a reaped half-open connection.
func (s *Server) readFrameDeadline(c net.Conn, br *bufio.Reader, body *[]byte) (uint8, []byte, error) {
	if d := s.opts.HeartbeatTimeout; d > 0 {
		c.SetReadDeadline(time.Now().Add(d))
	}
	kind, payload, err := readFrameInto(br, body)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.reaped.Add(1)
		}
	}
	return kind, payload, err
}

// durableSender returns cs for a durable run (the writer acks after
// the group commit) and nil otherwise (the conn handler acks on
// accept).
func durableSender(r *run, cs *connSender) *connSender {
	if r.durable {
		return cs
	}
	return nil
}

// accept decides one data frame's fate: duplicate (already accepted on
// a previous connection — acked OK again, not re-applied), enqueued
// (sequence advances; in durable mode the ack is deferred behind the
// covering group commit), refused with CodeStorage (the run is
// quarantined), or dropped after the bounded backpressure wait
// (CodeOverloaded, exact accounting, sequence does not advance so a
// future resend could still land it). queued reports the enqueued case:
// the writer has it, and with it a chunk's frame body.
func (s *Server) accept(r *run, seq uint64, it item) (code Code, queued bool) {
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	if r.gone {
		// The GC freed this run; its incarnation is over.
		return CodeSealed, false
	}
	if seq != 0 && seq <= r.lastSeq.Load() {
		s.duplicates.Add(1)
		if it.sender != nil && seq > r.durableSeq.Load() {
			// Durable mode, and the original (chunk, seal, or BYE) is
			// accepted but not yet on disk (it sits ahead of us in the
			// queue). The ack must wait for the group commit that covers
			// it, so ride the queue as an ack-only marker.
			ao := item{seq: seq, ackOnly: true, sender: it.sender}
			if !r.enqueue(ao, s) {
				return CodeOverloaded, false
			}
			return codeDeferred, false
		}
		return CodeOK, false
	}
	if r.complete.Load() && !it.bye {
		return CodeSealed, false
	}
	if r.quarantined.Load() && !it.bye && !it.seal {
		// Storage is gone for this run; refuse with the typed code so the
		// client accounts the loss in its storage bucket (not generic
		// drops) and other runs keep flowing.
		r.storageChunks.Add(1)
		r.storageSamples.Add(uint64(it.samples))
		return CodeStorage, false
	}
	if !r.enqueue(it, s) {
		r.droppedChunks.Add(1)
		r.droppedSamples.Add(uint64(it.samples))
		return CodeOverloaded, false
	}
	if seq != 0 {
		r.lastSeq.Store(seq)
	}
	if it.sender != nil {
		return codeDeferred, true
	}
	return CodeOK, true
}

// enqueue places it on the run's queue, stalling up to the
// backpressure window when full. Control frames (thread seals and the
// BYE) are never shed: they are rare, tiny, and carry the run's seal
// state and final client accounting — for them the stall holds until
// the writer drains a slot (TCP backpressure on the one flooding
// client) or the daemon shuts down. Callers hold seqMu; the writer
// drains r.q without it, so the wait always terminates.
func (r *run) enqueue(it item, s *Server) bool {
	select {
	case r.q <- it:
		return true
	default:
	}
	if it.seal || it.bye {
		select {
		case r.q <- it:
			return true
		case <-s.done:
			return false
		}
	}
	// Queue full: hold this connection's reads for the backpressure
	// window (the kernel's TCP window then pushes back on the client),
	// and only then drop.
	t := time.NewTimer(s.opts.BackpressureWait)
	defer t.Stop()
	select {
	case r.q <- it:
		return true
	case <-t.C:
		return false
	case <-s.done:
		return false
	}
}

// findOrCreateRun resolves a HELLO to its registry entry, creating the
// run directory and ingest goroutine on first contact. Reconnects (and
// even restarts of the same run ID) resume the same entry, which is
// what makes resends idempotent. Durability is a run-creation-time
// property: the first HELLO's FlagDurable decides, and later
// connections inherit it (the HELLO-ACK flags tell the client what it
// actually got).
func (s *Server) findOrCreateRun(h Hello) (*run, error) {
	id := sanitizeRunID(h.Run)
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return nil, fmt.Errorf("ingest: server closed")
	default:
	}
	if r, ok := s.runs[id]; ok {
		return r, nil
	}
	r := s.newRun(id, h.Host, h.PID, h.Flags&FlagDurable != 0)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	// Stamp the run's identity on disk immediately so a crash at any
	// later point still recovers who this run was. Best-effort: a
	// manifest failure here degrades to identity-less recovery, not a
	// refused run.
	writeManifest(s.fs, r.dir, r.manifest(false))
	r.start()
	s.runs[id] = r
	return r, nil
}

// newRun builds a registry entry (not yet started). Callers hold s.mu
// or are in single-threaded startup.
func (s *Server) newRun(id, host string, pid uint64, durable bool) *run {
	r := &run{
		id:      id,
		host:    host,
		pid:     pid,
		dir:     filepath.Join(s.opts.Dir, id),
		started: time.Now(),
		durable: durable,
		s:       s,
		q:       make(chan item, s.opts.QueueDepth),
		files:   make(map[int32]File),
		sizes:   make(map[int32]int64),
		dirty:   make(map[int32]bool),
	}
	r.lastSeen.Store(time.Now().UnixNano())
	r.client.Store(&ClientLoss{})
	return r
}

// start launches the run's writer goroutine.
func (r *run) start() {
	r.wg.Add(1)
	go r.writer()
}

// manifest renders the run's current registry state for the on-disk
// manifest.
func (r *run) manifest(complete bool) *Manifest {
	return &Manifest{
		ID:            r.id,
		Host:          r.host,
		PID:           r.pid,
		Started:       r.started,
		Durable:       r.durable,
		Fsync:         r.s.opts.Fsync.String(),
		Complete:      complete,
		Salvaged:      r.salvaged,
		Quarantined:   r.quarantined.Load(),
		LastSeq:       r.lastSeq.Load(),
		Chunks:        r.chunks.Load(),
		Samples:       r.samples.Load(),
		Bytes:         r.bytes.Load(),
		SealedThreads: r.sealedThreads.Load(),
		ClientLoss:    *r.client.Load(),
	}
}

// sanitizeRunID maps an arbitrary client-supplied run ID to a safe
// directory name.
func sanitizeRunID(id string) string {
	if id == "" {
		return "run"
	}
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	out := strings.TrimLeft(b.String(), ".")
	if out == "" {
		return "run"
	}
	return out
}

// writer is the run's ingest goroutine: the only toucher of its files.
// It drains the queue in group-commit batches — write every block and
// journal entry in the batch, sync once per the policy (always, for a
// durable run), then release the batch's deferred acks. A storage
// failure anywhere quarantines the run: the failing item and the rest
// of its batch are refused with CodeStorage, and the accept path
// refuses everything after.
func (r *run) writer() {
	defer r.wg.Done()
	var batch []item // reused batch after batch: commitBatch clears what it holds
	for {
		batch = batch[:0]
		closed := false
		select {
		case it, ok := <-r.q:
			if !ok {
				r.finish()
				return
			}
			batch = append(batch, it)
		case <-r.s.deadCh:
			return // simulated crash: abandon everything as-is
		}
	drain:
		for len(batch) < maxBatch {
			select {
			case it, ok := <-r.q:
				if !ok {
					closed = true
					break drain
				}
				batch = append(batch, it)
			case <-r.s.deadCh:
				return
			default:
				break drain
			}
		}
		r.commitBatch(batch)
		if closed {
			r.finish()
			return
		}
	}
}

// commitBatch applies one batch: write, group-commit sync, ack.
func (r *run) commitBatch(batch []item) {
	var acks []deferredAck
	for i, it := range batch {
		code := r.apply(it)
		if it.body != nil {
			frameBodies.Put(it.body) // written and checksummed, or refused: done with the bytes
		}
		batch[i] = item{}
		if it.sender != nil {
			acks = append(acks, deferredAck{
				sender:  it.sender,
				ack:     Ack{Seq: it.seq, Code: code},
				chunk:   !it.seal && !it.bye && !it.ackOnly,
				samples: it.samples,
			})
		}
	}
	// Group commit: one sync covers every block and journal entry the
	// batch landed, before any durable ack is released. Non-durable
	// every-N cadence shares the same point.
	needSync := (r.durable && (r.journalDirty || len(r.dirty) > 0)) ||
		(r.s.opts.Fsync.Mode == FsyncEveryN && r.chunksSince >= r.s.opts.Fsync.N)
	if needSync && !r.broken {
		if err := r.syncAll(); err != nil {
			r.quarantine(fmt.Errorf("ingest: run %s: sync: %w", r.id, err))
		}
	}
	if !r.broken {
		r.durableSeq.Store(r.journaledSeq)
	} else {
		// The run broke somewhere in this batch — the group commit above,
		// or a seal/BYE's own sync inside apply. Durability was promised
		// and not delivered: downgrade every OK not covered by an earlier
		// successful sync to the typed storage code so the client keeps
		// exact accounting and does not trust unsynced data. (A run broken
		// before the batch started yields no OK acks, so this is a no-op
		// then.)
		for i := range acks {
			if acks[i].ack.Code == CodeOK && !r.durableAt(acks[i].ack.Seq) {
				acks[i].ack.Code = CodeStorage
				if acks[i].chunk {
					r.storageChunks.Add(1)
					r.storageSamples.Add(uint64(acks[i].samples))
				}
			}
		}
	}
	select {
	case <-r.s.deadCh:
		return // crashed between commit and ack: the client must resend
	default:
	}
	for _, a := range acks {
		a.sender.sendAck(a.ack)
	}
}

// durableAt reports whether seq was already covered by an earlier
// successful sync.
func (r *run) durableAt(seq uint64) bool {
	return seq != 0 && seq <= r.durableSeq.Load()
}

// apply lands one item on disk and returns its ack code.
func (r *run) apply(it item) Code {
	switch {
	case it.ackOnly:
		if r.broken {
			return CodeStorage
		}
		// The data item rode ahead of this marker in the same queue, so
		// the batch's group commit covers it.
		return CodeOK
	case it.bye:
		return r.applyBye(it)
	case it.seal:
		return r.applySeal(it)
	default:
		return r.applyChunk(it)
	}
}

// applyChunk appends the block to its thread file and journals it:
// block first, journal entry second, so the journal never describes
// bytes that are not on disk (recovery truncates the other way
// around).
func (r *run) applyChunk(it item) Code {
	if r.broken {
		r.storageChunks.Add(1)
		r.storageSamples.Add(uint64(it.samples))
		return CodeStorage
	}
	f, err := r.file(it.thread)
	if err != nil {
		return r.failStorage(it, fmt.Errorf("ingest: run %s thread %d: open: %w", r.id, it.thread, err))
	}
	offset := r.sizes[it.thread]
	if _, err := f.Write(it.block); err != nil {
		// The write may have torn mid-block; whatever landed is beyond
		// the last journal entry and recovery truncates it away.
		return r.failStorage(it, fmt.Errorf("ingest: run %s thread %d: write: %w", r.id, it.thread, err))
	}
	r.sizes[it.thread] = offset + int64(len(it.block))
	r.dirty[it.thread] = true
	if err := r.journalAppend(journalEntry{
		Seq:     it.seq,
		Thread:  it.thread,
		Kind:    journalChunk,
		Offset:  uint64(offset),
		Length:  uint32(len(it.block)),
		Samples: it.samples,
		CRC:     crc32.ChecksumIEEE(it.block),
	}); err != nil {
		return r.failStorage(it, fmt.Errorf("ingest: run %s: journal: %w", r.id, err))
	}
	r.chunks.Add(1)
	r.samples.Add(uint64(it.samples))
	r.bytes.Add(uint64(len(it.block)))
	r.chunksSince++
	return CodeOK
}

// applySeal journals and closes one thread's file. Seals sync under
// every policy except never (a sealed stream is a durability point),
// and always for a durable run.
func (r *run) applySeal(it item) Code {
	r.sealedThreads.Add(1)
	if r.broken {
		if f, ok := r.files[it.thread]; ok {
			f.Close()
			delete(r.files, it.thread)
		}
		return CodeStorage
	}
	if err := r.journalAppend(journalEntry{Seq: it.seq, Thread: it.thread, Kind: journalSeal}); err != nil {
		r.quarantine(fmt.Errorf("ingest: run %s: journal seal: %w", r.id, err))
		return CodeStorage
	}
	code := CodeOK
	if r.durable || r.s.opts.Fsync.Mode != FsyncNever {
		if err := r.syncThread(it.thread); err != nil {
			r.quarantine(fmt.Errorf("ingest: run %s thread %d: seal sync: %w", r.id, it.thread, err))
			code = CodeStorage
		}
	}
	if f, ok := r.files[it.thread]; ok {
		if err := f.Close(); err != nil && code == CodeOK {
			r.quarantine(fmt.Errorf("ingest: run %s thread %d: close: %w", r.id, it.thread, err))
			code = CodeStorage
		}
		delete(r.files, it.thread)
		delete(r.dirty, it.thread)
	}
	return code
}

// applyBye seals the run: journal the BYE, sync everything, close,
// and commit the manifest atomically. After it the run is complete —
// its directory is a finished artifact the GC may reclaim.
func (r *run) applyBye(it item) Code {
	code := CodeOK
	r.client.Store(&it.loss)
	if !r.broken {
		if err := r.journalAppend(journalEntry{Seq: it.seq, Kind: journalBye}); err != nil {
			r.quarantine(fmt.Errorf("ingest: run %s: journal bye: %w", r.id, err))
			code = CodeStorage
		}
	}
	if !r.broken && (r.durable || r.s.opts.Fsync.Mode != FsyncNever) {
		if err := r.syncAll(); err != nil {
			r.quarantine(fmt.Errorf("ingest: run %s: bye sync: %w", r.id, err))
			code = CodeStorage
		}
	}
	r.closeFiles()
	if r.broken {
		// The BYE still closes the run — complete in memory, so this
		// incarnation refuses further data and the GC may reclaim it —
		// but the seal carries the Quarantined marker: the fsynced
		// manifest could reach disk while the data it describes did not,
		// so recovery must not trust it and instead replays the journal,
		// truncating whatever never made it. The typed ack tells the
		// client its seal was not made durable.
		writeManifest(r.s.fs, r.dir, r.manifest(true))
		r.complete.Store(true)
		return CodeStorage
	}
	r.durableSeq.Store(r.journaledSeq)
	// The atomic manifest seal is the run's commit point: after the
	// rename, recovery trusts the manifest; before it, the journal.
	if err := writeManifest(r.s.fs, r.dir, r.manifest(true)); err != nil {
		r.recordErr(fmt.Errorf("ingest: run %s: manifest seal: %w", r.id, err))
	}
	r.complete.Store(true)
	return code
}

// file returns the open append handle for thread, opening (and
// measuring) it on first touch so recovered runs continue at their
// true offsets.
func (r *run) file(thread int32) (File, error) {
	if f, ok := r.files[thread]; ok {
		return f, nil
	}
	path := filepath.Join(r.dir, fmt.Sprintf("trace.%d.psxt", thread))
	f, err := r.s.fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	size := int64(0)
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	r.files[thread] = f
	r.sizes[thread] = size
	return f, nil
}

// journalAppend writes one entry (opening the journal lazily) with a
// single Write call.
func (r *run) journalAppend(e journalEntry) error {
	if r.journal == nil {
		path := filepath.Join(r.dir, journalName)
		size := int64(0)
		if st, err := os.Stat(path); err == nil {
			size = st.Size()
		}
		f, err := r.s.fs.OpenAppend(path)
		if err != nil {
			return err
		}
		r.journal = f
		r.journalSize = size
		if size == 0 {
			if err := writeJournalHeader(f); err != nil {
				f.Close()
				r.journal = nil
				return err
			}
			r.journalSize = journalHeaderLen
		}
	}
	r.journalEntry = appendJournalEntry(r.journalEntry[:0], e)
	if _, err := r.journal.Write(r.journalEntry); err != nil {
		return err
	}
	r.journalSize += journalEntryLen
	r.journalDirty = true
	if e.Seq > r.journaledSeq {
		r.journaledSeq = e.Seq
	}
	return nil
}

// syncThread syncs one thread's file plus the journal.
func (r *run) syncThread(thread int32) error {
	if f, ok := r.files[thread]; ok && r.dirty[thread] {
		if err := f.Sync(); err != nil {
			return err
		}
		r.fsyncs.Add(1)
		delete(r.dirty, thread)
	}
	return r.syncJournal()
}

// syncAll syncs every dirty file plus the journal.
func (r *run) syncAll() error {
	for th, f := range r.files {
		if !r.dirty[th] {
			continue
		}
		if err := f.Sync(); err != nil {
			return err
		}
		r.fsyncs.Add(1)
		delete(r.dirty, th)
	}
	return r.syncJournal()
}

func (r *run) syncJournal() error {
	if r.journal == nil || !r.journalDirty {
		r.chunksSince = 0
		return nil
	}
	if err := r.journal.Sync(); err != nil {
		return err
	}
	r.fsyncs.Add(1)
	r.journalDirty = false
	r.chunksSince = 0
	return nil
}

// failStorage accounts a chunk lost to storage and quarantines the
// run.
func (r *run) failStorage(it item, err error) Code {
	r.storageChunks.Add(1)
	r.storageSamples.Add(uint64(it.samples))
	r.quarantine(err)
	return CodeStorage
}

// quarantine latches the run into storage-refusal mode: the writer
// stops touching the disk, the accept path answers chunks with
// CodeStorage, and every other run keeps flowing.
func (r *run) quarantine(err error) {
	r.broken = true
	r.quarantined.Store(true)
	r.recordErr(err)
	r.closeFiles()
}

func (r *run) recordErr(err error) {
	r.errMu.Lock()
	r.errs = append(r.errs, err)
	r.errMu.Unlock()
}

// finish runs at graceful queue close: sync per policy, close
// everything, and leave a manifest carrying the run's identity and
// progress (Complete only if BYE landed) for the next daemon.
func (r *run) finish() {
	if !r.broken && !r.complete.Load() {
		if r.s.opts.Fsync.Mode != FsyncNever || r.durable {
			if err := r.syncAll(); err != nil {
				r.quarantine(fmt.Errorf("ingest: run %s: close sync: %w", r.id, err))
			} else {
				r.durableSeq.Store(r.journaledSeq)
			}
		}
		writeManifest(r.s.fs, r.dir, r.manifest(false))
	}
	r.closeFiles()
}

func (r *run) closeFiles() {
	for th, f := range r.files {
		if err := f.Close(); err != nil {
			r.recordErr(fmt.Errorf("ingest: run %s thread %d: close: %w", r.id, th, err))
		}
		delete(r.files, th)
		delete(r.dirty, th)
	}
	if r.journal != nil {
		if err := r.journal.Close(); err != nil {
			r.recordErr(fmt.Errorf("ingest: run %s: journal close: %w", r.id, err))
		}
		r.journal = nil
	}
}

// RunInfo is one run's registry snapshot, served at /runs.
type RunInfo struct {
	ID             string    `json:"id"`
	Host           string    `json:"host,omitempty"`
	PID            uint64    `json:"pid,omitempty"`
	Dir            string    `json:"dir"`
	Started        time.Time `json:"started"`
	LastSeenSec    float64   `json:"last_seen_sec"`
	Complete       bool      `json:"complete"`
	Durable        bool      `json:"durable,omitempty"`
	Salvaged       bool      `json:"salvaged,omitempty"`
	Quarantined    bool      `json:"quarantined,omitempty"`
	LastSeq        uint64    `json:"last_seq"`
	DurableSeq     uint64    `json:"durable_seq,omitempty"`
	SealedThreads  int64     `json:"sealed_threads"`
	Chunks         uint64    `json:"chunks"`
	Samples        uint64    `json:"samples"`
	Bytes          uint64    `json:"bytes"`
	DroppedChunks  uint64    `json:"dropped_chunks"`
	DroppedSamples uint64    `json:"dropped_samples"`
	StorageChunks  uint64    `json:"storage_chunks,omitempty"`
	StorageSamples uint64    `json:"storage_samples,omitempty"`
	Fsyncs         uint64    `json:"fsyncs,omitempty"`

	// Client-reported loss accounting from the run's BYE (zero until
	// the run completes).
	ClientLoss
}

// Runs returns the registry snapshot, sorted by run ID.
func (s *Server) Runs() []RunInfo {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	out := make([]RunInfo, 0, len(runs))
	now := time.Now()
	for _, r := range runs {
		out = append(out, RunInfo{
			ID:             r.id,
			Host:           r.host,
			PID:            r.pid,
			Dir:            r.dir,
			Started:        r.started,
			LastSeenSec:    now.Sub(time.Unix(0, r.lastSeen.Load())).Seconds(),
			Complete:       r.complete.Load(),
			Durable:        r.durable,
			Salvaged:       r.salvaged,
			Quarantined:    r.quarantined.Load(),
			LastSeq:        r.lastSeq.Load(),
			DurableSeq:     r.durableSeq.Load(),
			SealedThreads:  r.sealedThreads.Load(),
			Chunks:         r.chunks.Load(),
			Samples:        r.samples.Load(),
			Bytes:          r.bytes.Load(),
			DroppedChunks:  r.droppedChunks.Load(),
			DroppedSamples: r.droppedSamples.Load(),
			StorageChunks:  r.storageChunks.Load(),
			StorageSamples: r.storageSamples.Load(),
			Fsyncs:         r.fsyncs.Load(),
			ClientLoss:     *r.client.Load(),
		})
	}
	return out
}
