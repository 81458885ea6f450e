package ingest

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/obs"
)

// psxd's server: the listener, the run registry and shutdown. What
// happens to a frame is in three other files: session.go decides,
// store.go commits, and run.go holds the per-run writer loop and
// ledger between the two.

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

// Server is the psxd ingestion service.
type Server struct {
	lis  net.Listener
	opts Options
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

	wg sync.WaitGroup // accept loop, connection handlers, housekeeper

	obsSrv *obs.Server

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

// Serve binds addr ("host:port"; ":0" picks a free port) and starts
// accepting instrumented processes on it, as ServeListener does.
func Serve(addr string, opts Options) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	return ServeListener(lis, opts)
}

// ServeListener starts accepting instrumented processes on lis, which
// the Server owns from then on, on an error too. Trace data lands under
// opts.Dir. Before accepting it recovers every run a previous daemon
// left behind: journals are replayed, torn tails truncated to the last
// valid entry, and salvaged runs re-registered so a reconnecting
// client resumes exactly where the disk state ends.
func ServeListener(lis net.Listener, opts Options) (_ *Server, err error) {
	orDefault(&opts.MaxConns, defaultMaxConns)
	orDefault(&opts.QueueDepth, defaultQueueDepth)
	orDefault(&opts.BackpressureWait, defaultBackpressureWait)
	orDefault(&opts.HousekeepInterval, defaultHousekeep)
	if opts.HeartbeatTimeout == 0 { // negative disables reaping
		opts.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	s := &Server{
		lis:     lis,
		opts:    opts,
		done:    make(chan struct{}),
		deadCh:  make(chan struct{}),
		runs:    make(map[string]*run),
		conns:   make(map[net.Conn]struct{}),
		started: time.Now(),
	}
	// A failed start closes the listener and drains the writers of the
	// runs it recovered, as a shutdown would.
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if opts.Dir == "" {
		return nil, fmt.Errorf("ingest: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: data dir: %w", err)
	}
	if err := s.recoverRuns(); err != nil {
		return nil, err
	}
	if opts.ObsAddr != "" {
		srv, err := s.startObs(opts.ObsAddr)
		if err != nil {
			return nil, err
		}
		s.obsSrv = srv
	}
	if opts.RetainBytes > 0 || opts.RetainAge > 0 {
		s.wg.Add(1)
		go s.housekeeper()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
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
func (s *Server) CloseWithin(d time.Duration) (err error) {
	s.hangUp()
	s.wg.Wait()
	var errs []error
	if s.obsSrv != nil {
		defer func() { err = errors.Join(err, s.obsSrv.Close()) }()
	}
	if s.killed.Load() {
		// Crashed via Kill: writers already abandoned their state, the
		// journal holds the truth. Only the obs plane is left to close.
		return nil
	}
	runs := s.snapshot()
	s.drainOnce.Do(func() {
		for _, r := range runs {
			r.seqMu.Lock()
			r.closeQueue()
			r.seqMu.Unlock()
		}
	})
	drained := make(chan struct{})
	go func() {
		for _, r := range runs {
			r.wg.Wait()
		}
		close(drained)
	}()
	var deadline <-chan time.Time // nil, and never ready, without a bound
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-drained:
	case <-deadline:
		// A writer is stuck (most likely inside a stalled sync). Force
		// the rest out through the dead channel and abandon the stuck
		// one; recovery will salvage whatever the journal covers.
		s.deadOnce.Do(func() { close(s.deadCh) })
		errs = append(errs, fmt.Errorf("ingest: drain deadline (%v) exceeded; writers abandoned", d))
	}
	// What each run's store recorded, the writer's check of its ledger
	// (finish) included.
	for _, r := range runs {
		r.st.errMu.Lock()
		errs = append(errs, r.st.errs...)
		r.st.errMu.Unlock()
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
	s.hangUp()
}

// hangUp stops accepting and severs every client connection.
func (s *Server) hangUp() {
	s.closeOnce.Do(func() { close(s.done) })
	s.lis.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.lis.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return // the listener is closed: shutdown
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
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
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
	if err := os.MkdirAll(r.st.dir, 0o755); err != nil {
		return nil, err
	}
	// Stamp the run's identity on disk immediately so a crash at any
	// later point still recovers who this run was. Best-effort: a
	// manifest failure here degrades to identity-less recovery, not a
	// refused run.
	r.st.writeManifest(r.manifest(false))
	r.start()
	s.runs[id] = r
	return r, nil
}

// sanitizeRunID maps an arbitrary client-supplied run ID to a safe
// directory name.
func sanitizeRunID(id string) string {
	out := strings.TrimLeft(strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, id), ".")
	if out == "" {
		return "run"
	}
	return out
}

// snapshot copies the registry's runs out from under the lock.
func (s *Server) snapshot() []*run {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	return runs
}

// Runs returns the registry snapshot, sorted by run ID.
func (s *Server) Runs() []RunInfo {
	runs := s.snapshot()
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	out := make([]RunInfo, 0, len(runs))
	now := time.Now()
	for _, r := range runs {
		out = append(out, r.info(now))
	}
	return out
}
