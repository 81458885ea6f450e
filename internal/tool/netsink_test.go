package tool_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// startIngestServer runs a psxd ingest server on a loopback port for
// the duration of the test.
func startIngestServer(t *testing.T) (*ingest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, dir
}

// waitRunComplete polls until the named run has sent BYE and its
// writer goroutine has gone idle.
func waitRunComplete(t *testing.T, srv *ingest.Server, run string) ingest.RunInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, ri := range srv.Runs() {
			if ri.ID == run && ri.Complete {
				return ri
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %q never completed; registry: %+v", run, srv.Runs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIngestTeeByteIdentical runs a seeded workload with both the file
// sink and the network sink enabled: the per-run directory psxd writes
// must be byte-identical to the local StreamDir, file for file.
func TestIngestTeeByteIdentical(t *testing.T) {
	srv, dataDir := startIngestServer(t)
	localDir := t.TempDir()

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "tee-run"
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	const regions = 150
	for i := 0; i < regions; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	rep := tl.Report()
	if rep.IngestShippedChunks == 0 {
		t.Fatal("no chunks shipped to the ingest server")
	}
	if rep.IngestDroppedChunks != 0 {
		t.Fatalf("%d chunks dropped on a healthy server", rep.IngestDroppedChunks)
	}
	ri := waitRunComplete(t, srv, "tee-run")
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
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
		remote, err := os.ReadFile(filepath.Join(dataDir, "tee-run", e.Name()))
		if err != nil {
			t.Fatalf("server side of %s: %v", e.Name(), err)
		}
		if !bytes.Equal(local, remote) {
			t.Errorf("%s: server copy (%d bytes) differs from local (%d bytes)",
				e.Name(), len(remote), len(local))
		}
	}
	// The run dir also holds the durability journal and manifest; only
	// the trace files must mirror the local set.
	remote, err := os.ReadDir(filepath.Join(dataDir, "tee-run"))
	if err != nil {
		t.Fatal(err)
	}
	traces := 0
	for _, e := range remote {
		if filepath.Ext(e.Name()) == ".psxt" {
			traces++
		}
	}
	if traces != len(entries) {
		t.Errorf("server run dir holds %d trace files, local %d", traces, len(entries))
	}
}

// TestIngestNetOnlyMode streams with no StreamDir at all: the network
// is the only sink, no local file is ever opened, and every dispatched
// sample either lands on the server or is dropped with accounting.
func TestIngestNetOnlyMode(t *testing.T) {
	srv, dataDir := startIngestServer(t)

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "net-only"
	opts.OpenTraceFile = func(path string) (io.WriteCloser, error) {
		t.Errorf("net-only mode opened a trace file: %s", path)
		return nil, fmt.Errorf("unexpected open")
	}
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	const regions = 100
	for i := 0; i < regions; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	tl.Detach()
	rep := tl.Report()
	waitRunComplete(t, srv, "net-only")

	var dispatched uint64
	for _, n := range rep.Events {
		dispatched += n
	}
	var landed int
	files, err := perf.FindTraceFiles(filepath.Join(dataDir, "net-only"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := perf.ReadTraceStream(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		landed += len(buf.Samples())
	}
	// Conservation: every dispatched callback's sample landed on the
	// server, stayed in memory, or sits in an exact loss bucket.
	got := uint64(landed) + uint64(rep.Samples) + rep.Dropped +
		rep.IngestDroppedSamples + rep.StreamDiscardedSamples
	if got != dispatched {
		t.Errorf("accounting: landed %d + in-memory %d + dropped %d + ingest-dropped %d + discarded %d = %d, want %d dispatched",
			landed, rep.Samples, rep.Dropped, rep.IngestDroppedSamples,
			rep.StreamDiscardedSamples, got, dispatched)
	}
	if rep.IngestShippedChunks == 0 {
		t.Error("no chunks shipped in net-only mode")
	}
	if rep.IngestDroppedChunks != 0 {
		t.Errorf("%d chunks dropped on a healthy server", rep.IngestDroppedChunks)
	}
}

// TestIngestNetOnlySealsPastTheBound: with no StreamDir and the memory
// bound full when the run stops, every thread's SEAL must still reach
// the daemon. The daemon is unreachable through the run and comes back
// within the flush grace; a SEAL that found no room was settled like a
// chunk — and a control frame settles to nothing — so psxd counted
// fewer sealed threads than streamed.
func TestIngestNetOnlySealsPastTheBound(t *testing.T) {
	srv, dataDir := startIngestServer(t)
	var down atomic.Bool
	down.Store(true)

	const threads = 2
	rt := omp.New(omp.Config{NumThreads: threads})
	defer rt.Close()
	opts := FullMeasurement()
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "net-only-seal"
	opts.IngestPendingDepth = 2
	opts.DialIngest = outageDialer(&down)
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for tl.Report().IngestDroppedChunks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the memory bound never filled during the outage")
		}
		for i := 0; i < 50; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
	}
	// The daemon answers once Detach has queued the SEALs behind the
	// full bound.
	time.AfterFunc(300*time.Millisecond, func() { down.Store(false) })
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	checkConservation(t, tl.Report())
	waitRunComplete(t, srv, "net-only-seal")
	m, err := ingest.ReadManifest(filepath.Join(dataDir, "net-only-seal"))
	if err != nil {
		t.Fatal(err)
	}
	if m.SealedThreads != threads {
		t.Fatalf("manifest sealed_threads = %d, want the %d threads that streamed", m.SealedThreads, threads)
	}
}

// TestDetachPromptWithFailingOpenerAndLargeBackoff: with a permanently
// failing OpenTraceFile, the writer goroutine sits in its open-retry
// backoff when Detach lands; Detach must still return promptly, and the
// failure must surface as a stream error and a degraded thread. That a
// large backoff step cannot stall Detach either is pinned on the wait
// itself, by TestDetachPromptBackoffWait.
func TestDetachPromptWithFailingOpenerAndLargeBackoff(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = t.TempDir()
	opts.OpenTraceFile = func(path string) (io.WriteCloser, error) {
		return nil, fmt.Errorf("injected: open %s always fails", path)
	}
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Enough regions to seal chunks so the writer goroutine is inside
	// its open-retry backoff when Detach lands.
	for i := 0; i < 100; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	start := time.Now()
	tl.Detach()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Detach took %v with a failing opener; the retry sleep is not interruptible", elapsed)
	}
	if err := tl.StreamError(); err == nil {
		t.Error("permanently failing opener reported no stream error")
	}
	rep := tl.Report()
	if rep.DegradedThreads == 0 {
		t.Error("no thread reported degraded despite every open failing")
	}
}

// TestIngestDurableTee negotiates durable acks: the daemon journals and
// fsyncs every chunk before acking, the run registers as durable, and
// the teed bytes still mirror the local stream exactly.
func TestIngestDurableTee(t *testing.T) {
	srv, dataDir := startIngestServer(t)
	localDir := t.TempDir()

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "durable-tee"
	opts.IngestDurable = true
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	tl.Detach()
	rep := tl.Report()
	if rep.IngestShippedChunks == 0 {
		t.Fatal("no chunks shipped")
	}
	if rep.IngestDroppedChunks != 0 || rep.IngestStorageChunks != 0 {
		t.Fatalf("healthy durable run refused chunks: dropped=%d storage=%d",
			rep.IngestDroppedChunks, rep.IngestStorageChunks)
	}
	ri := waitRunComplete(t, srv, "durable-tee")
	if !ri.Durable {
		t.Fatal("run did not negotiate durable acks")
	}
	if ri.Fsyncs == 0 {
		t.Fatal("durable run recorded no fsyncs")
	}
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
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
		remote, err := os.ReadFile(filepath.Join(dataDir, "durable-tee", e.Name()))
		if err != nil {
			t.Fatalf("server side of %s: %v", e.Name(), err)
		}
		if !bytes.Equal(local, remote) {
			t.Errorf("%s: server copy (%d bytes) differs from local (%d bytes)",
				e.Name(), len(remote), len(local))
		}
	}
	m, err := ingest.ReadManifest(filepath.Join(dataDir, "durable-tee"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete || !m.Durable {
		t.Fatalf("manifest = %+v, want complete durable", m)
	}
}
