package tool_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// The chunk conservation invariant: every chunk handed to the network
// sink is in exactly one bucket when the run ends.
func checkConservation(t *testing.T, rep *Report) {
	t.Helper()
	got := rep.IngestShippedChunks + rep.IngestDroppedChunks +
		rep.IngestStorageChunks + rep.IngestReplayedChunks +
		rep.IngestSpillPendingChunks
	if got != rep.IngestProducedChunks {
		t.Errorf("conservation: shipped %d + dropped %d + storage %d + replayed %d + spill-pending %d = %d, want %d produced",
			rep.IngestShippedChunks, rep.IngestDroppedChunks,
			rep.IngestStorageChunks, rep.IngestReplayedChunks,
			rep.IngestSpillPendingChunks, got, rep.IngestProducedChunks)
	}
}

// outageConn fails writes (closing the connection) while down is set,
// so flipping the switch severs the live connection at its next frame.
type outageConn struct {
	net.Conn
	down *atomic.Bool
}

func (c *outageConn) Write(b []byte) (int, error) {
	if c.down.Load() {
		c.Conn.Close()
		return 0, errors.New("injected outage")
	}
	return c.Conn.Write(b)
}

// outageDialer returns a DialIngest that refuses while down is set and
// hands out outage-aware connections otherwise.
func outageDialer(down *atomic.Bool) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if down.Load() {
			return nil, errors.New("injected outage")
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		return &outageConn{Conn: c, down: down}, nil
	}
}

// TestSpillReplayZeroLossConservation drives a psxd outage longer than
// the in-memory queue: the sink spills to disk, replays on recovery,
// the run completes with zero loss, the conservation equation balances
// exactly, and the run directory on the server is byte-identical to
// the local tee — the spill detour must be invisible in the data.
func TestSpillReplayZeroLossConservation(t *testing.T) {
	srv, dataDir := startIngestServer(t)
	localDir := t.TempDir()
	var down atomic.Bool

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "spill-replay"
	opts.IngestPendingDepth = 2 // tiny queue: the outage overruns it fast
	opts.DialIngest = outageDialer(&down)
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	// Outage: run until the backlog has demonstrably taken the disk
	// detour, so the test never depends on chunk-size timing.
	down.Store(true)
	deadline := time.Now().Add(30 * time.Second)
	for tl.Report().IngestSpilledChunks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spill never engaged during the outage")
		}
		for i := 0; i < 50; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
	}
	down.Store(false)
	for i := 0; i < 50; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	tl.Detach()

	rep := tl.Report()
	checkConservation(t, rep)
	if rep.IngestSpilledChunks == 0 {
		t.Fatal("no chunks spilled")
	}
	if rep.IngestDroppedChunks != 0 || rep.IngestStorageChunks != 0 {
		t.Fatalf("outage shorter than the spill bound lost data: dropped=%d storage=%d",
			rep.IngestDroppedChunks, rep.IngestStorageChunks)
	}
	if rep.IngestSpillPendingChunks != 0 {
		t.Fatalf("%d chunks still pending on disk after recovery", rep.IngestSpillPendingChunks)
	}
	if rep.IngestReplayedChunks != rep.IngestSpilledChunks {
		t.Fatalf("spilled %d but replayed %d", rep.IngestSpilledChunks, rep.IngestReplayedChunks)
	}

	// The server's copy must be byte-identical to the local tee, file
	// for file, replayed chunks included.
	ri := waitRunComplete(t, srv, "spill-replay")
	if ri.Chunks != rep.IngestShippedChunks+rep.IngestReplayedChunks {
		t.Errorf("server landed %d chunks, client shipped %d + replayed %d",
			ri.Chunks, rep.IngestShippedChunks, rep.IngestReplayedChunks)
	}
	entries, err := os.ReadDir(localDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no local stream files: %v", err)
	}
	for _, e := range entries {
		local, err := os.ReadFile(filepath.Join(localDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		remote, err := os.ReadFile(filepath.Join(dataDir, "spill-replay", e.Name()))
		if err != nil {
			t.Fatalf("server side of %s: %v", e.Name(), err)
		}
		if !bytes.Equal(local, remote) {
			t.Errorf("%s: server copy (%d bytes) differs from local (%d bytes)",
				e.Name(), len(remote), len(local))
		}
	}

	// The BYE carried the client's final accounting into the manifest,
	// where offline readers (ompreport) surface it.
	m, err := ingest.ReadManifest(filepath.Join(dataDir, "spill-replay"))
	if err != nil {
		t.Fatal(err)
	}
	if m.ClientProduced != rep.IngestProducedChunks ||
		m.ClientSpilled != rep.IngestSpilledChunks ||
		m.ClientReplayed != rep.IngestReplayedChunks ||
		m.ClientDropped != 0 {
		t.Errorf("manifest client accounting %+v does not match report (produced %d spilled %d replayed %d)",
			m, rep.IngestProducedChunks, rep.IngestSpilledChunks, rep.IngestReplayedChunks)
	}
	// Both ends kept books and psxd closed them across the wire at the
	// BYE: no remainder stamped, and each side's own ledger balances.
	if m.Unstored != nil || ri.Unstored != nil {
		t.Errorf("books did not close at BYE: manifest %+v, /runs %+v", m.Unstored, ri.Unstored)
	}
	if err := tl.StreamError(); err != nil {
		t.Errorf("client ledgers: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("psxd ledgers: %v", err)
	}
}

// TestOutagePermanentSpillPendingConservation never lets the sink
// connect at all: at detach every produced chunk must sit on disk as
// spilled-pending — zero dropped — and the conservation equation must
// balance with only the pending term. The backlog on disk is the trace
// files: the samples they hold are the samples pending.
func TestOutagePermanentSpillPendingConservation(t *testing.T) {
	var down atomic.Bool
	down.Store(true)

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.IngestAddr = "127.0.0.1:1" // never reachable; dialer refuses anyway
	opts.IngestRun = "never-up"
	opts.IngestPendingDepth = 2
	opts.StreamDir = t.TempDir()
	opts.DialIngest = outageDialer(&down)
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	tl.Detach()

	rep := tl.Report()
	checkConservation(t, rep)
	if rep.IngestProducedChunks == 0 {
		t.Fatal("no chunks produced")
	}
	if rep.IngestDroppedChunks != 0 {
		t.Fatalf("%d chunks dropped with spill space available", rep.IngestDroppedChunks)
	}
	if rep.IngestShippedChunks != 0 || rep.IngestReplayedChunks != 0 {
		t.Fatalf("chunks shipped (%d) or replayed (%d) with no server",
			rep.IngestShippedChunks, rep.IngestReplayedChunks)
	}
	if rep.IngestSpillPendingChunks != rep.IngestProducedChunks {
		t.Fatalf("spill-pending %d, want every produced chunk (%d)",
			rep.IngestSpillPendingChunks, rep.IngestProducedChunks)
	}
	// The backlog is real files on disk, not just counters.
	files, err := perf.FindTraceFiles(opts.StreamDir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk uint64
	for _, path := range files {
		onDisk += streamSamples(t, path)
	}
	if onDisk != rep.IngestSpillPendingSamples {
		t.Fatalf("trace files hold %d samples, spill-pending %d", onDisk, rep.IngestSpillPendingSamples)
	}
}

// streamSamples counts the samples in the trace file at path; a file
// that was never written holds none.
func streamSamples(t *testing.T, path string) uint64 {
	t.Helper()
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := perf.CountStreamSamples(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return n
}

// outage runs regions until the sink, with its connection held down,
// has spilled and done is true of the report, then brings the
// connection back and runs more.
func outage(t *testing.T, rt *omp.RT, tl *Tool, down *atomic.Bool, done func(*Report) bool) {
	t.Helper()
	run := func() {
		for i := 0; i < 50; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
	}
	run()
	down.Store(true)
	deadline := time.Now().Add(30 * time.Second)
	for rep := tl.Report(); rep.IngestSpilledChunks == 0 || !done(rep); rep = tl.Report() {
		if time.Now().After(deadline) {
			t.Fatal("the outage never spilled, or never reached its end")
		}
		run()
	}
	down.Store(false)
	run()
}

// sameFile fails the test unless the two files hold the same bytes.
func sameFile(t *testing.T, local, remote string) {
	t.Helper()
	a, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(remote)
	if err != nil {
		t.Fatalf("server side of %s: %v", filepath.Base(local), err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s: server copy (%d bytes) differs from local (%d bytes)",
			filepath.Base(local), len(b), len(a))
	}
}

// TestSpillReplayCompressed is the outage with flate-compressed blocks.
// Replay reads every parked block back from its trace file and checks
// it as a PSX2 block, so a deflated block must pass that check, and the
// server's copy must stay byte-identical to the tee.
func TestSpillReplayCompressed(t *testing.T) {
	srv, dataDir := startIngestServer(t)
	localDir := t.TempDir()
	var down atomic.Bool

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "spill-flate"
	opts.IngestPendingDepth = 2
	opts.TraceCompress = true
	opts.DialIngest = outageDialer(&down)
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	outage(t, rt, tl, &down, func(*Report) bool { return true })
	tl.Detach()

	rep := tl.Report()
	checkConservation(t, rep)
	if rep.IngestDroppedChunks != 0 || rep.IngestSpillPendingChunks != 0 ||
		rep.IngestReplayedChunks != rep.IngestSpilledChunks {
		t.Fatalf("compressed replay lost data: spilled %d, replayed %d, dropped %d, pending %d",
			rep.IngestSpilledChunks, rep.IngestReplayedChunks,
			rep.IngestDroppedChunks, rep.IngestSpillPendingChunks)
	}
	waitRunComplete(t, srv, "spill-flate")
	files, err := perf.FindTraceFiles(localDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no local stream files: %v", err)
	}
	for _, path := range files {
		sameFile(t, path, filepath.Join(dataDir, "spill-flate", filepath.Base(path)))
	}
	if err := tl.StreamError(); err != nil {
		t.Errorf("client ledgers: %v", err)
	}
}

// TestSpillSkipsDegradedThread: thread 0's trace file never opens, so
// its blocks are not on local disk and the spill has nothing to point
// at. Through an outage thread 0's overflow is dropped, thread 1's
// spills and replays, and the books still close.
func TestSpillSkipsDegradedThread(t *testing.T) {
	srv, dataDir := startIngestServer(t)
	localDir := t.TempDir()
	var down atomic.Bool

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "spill-degraded"
	opts.IngestPendingDepth = 2
	opts.DialIngest = outageDialer(&down)
	opts.OpenTraceFile = func(path string) (io.WriteCloser, error) {
		if filepath.Base(path) == "trace.0.psxt" {
			return nil, errors.New("injected: thread 0's trace file never opens")
		}
		return os.Create(path)
	}
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The outage lasts until thread 0 has overflowed: thread 1's first
	// spilled chunk can come before thread 0 has sent two chunks.
	outage(t, rt, tl, &down, func(rep *Report) bool { return rep.IngestDroppedChunks > 0 })
	tl.Detach()

	rep := tl.Report()
	checkConservation(t, rep)
	if rep.DegradedThreads != 1 {
		t.Errorf("%d degraded threads, want 1", rep.DegradedThreads)
	}
	if rep.IngestDroppedChunks == 0 {
		t.Error("thread 0's overflow was not dropped")
	}
	if rep.IngestSpillPendingChunks != 0 || rep.IngestReplayedChunks != rep.IngestSpilledChunks {
		t.Errorf("spilled %d, replayed %d, pending %d: thread 1's detour must deliver everything",
			rep.IngestSpilledChunks, rep.IngestReplayedChunks, rep.IngestSpillPendingChunks)
	}
	waitRunComplete(t, srv, "spill-degraded")
	runDir := filepath.Join(dataDir, "spill-degraded")
	// Thread 1 lost nothing: the server's copy is its local file.
	sameFile(t, filepath.Join(localDir, "trace.1.psxt"), filepath.Join(runDir, "trace.1.psxt"))
	// Every drop is thread 0's: the file sink discarded all of thread
	// 0's samples, and what of them the server lacks the sink dropped.
	if got := streamSamples(t, filepath.Join(runDir, "trace.0.psxt")) + rep.IngestDroppedSamples; got != rep.StreamDiscardedSamples {
		t.Errorf("thread 0: server %d + dropped %d samples, want the %d it staged",
			got-rep.IngestDroppedSamples, rep.IngestDroppedSamples, rep.StreamDiscardedSamples)
	}
	err = tl.StreamError()
	if err == nil || !strings.Contains(err.Error(), "never opens") {
		t.Errorf("stream error %v does not name the open failure", err)
	}
	if err != nil && strings.Contains(err.Error(), "ledger out of balance") {
		t.Errorf("ledger imbalance: %v", err)
	}
}
