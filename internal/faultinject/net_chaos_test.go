package faultinject_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"goomp/internal/faketime"
	"goomp/internal/faultinject"
	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

// The network-edge chaos suite drives the ingest sink through the
// failure modes a fleet actually serves up: a psxd that is dead before
// attach, one that dies mid-run, a slow link whose acks lag, and a
// connection dropped halfway through a frame. The invariants under
// every one of them: recording threads never block, Detach stays
// bounded, every lost chunk is counted exactly, and whenever the
// server has a copy of a file it is byte-identical to the local one.

// startNetChaosServer runs a real ingest server for the test.
func startNetChaosServer(t *testing.T) (*ingest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, dir
}

// waitRunDone polls the registry until the run has landed its BYE.
func waitRunDone(t *testing.T, srv *ingest.Server, run string) ingest.RunInfo {
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

// requireByteIdentical asserts the server's run directory mirrors the
// local stream directory file for file, byte for byte.
func requireByteIdentical(t *testing.T, localDir, runDir string) {
	t.Helper()
	entries, err := os.ReadDir(localDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no local stream files: %v", err)
	}
	for _, e := range entries {
		local, err := os.ReadFile(filepath.Join(localDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		remote, err := os.ReadFile(filepath.Join(runDir, e.Name()))
		if err != nil {
			t.Fatalf("server side of %s: %v", e.Name(), err)
		}
		if !bytes.Equal(local, remote) {
			t.Errorf("%s: server copy (%d bytes) differs from local (%d bytes)",
				e.Name(), len(remote), len(local))
		}
	}
	// The run dir additionally holds the durability journal and
	// manifest; only the trace files must mirror the local set.
	remote, err := os.ReadDir(runDir)
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

// runWorkload drives the instrumented runtime through regions parallel
// regions and bounds how long the workload itself may take — a sink
// that blocks a recording thread shows up here as a wall-clock blowup.
func runWorkload(t *testing.T, rt *omp.RT, regions int) {
	t.Helper()
	start := time.Now()
	for i := 0; i < regions; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("workload took %v: the ingest sink is blocking recording threads", elapsed)
	}
}

// TestChaosNetDeadServerAtAttach points the sink at a server that
// never answers: every dial fails, forever. The workload and Detach
// must stay bounded, nothing ships, and every sample that entered the
// network path sits in an exact loss bucket.
func TestChaosNetDeadServerAtAttach(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		plan := faultinject.New(7)
		plan.FailDial(1 << 30) // the server is simply dead

		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		opts := tool.FullMeasurement()
		opts.IngestAddr = "127.0.0.1:9" // never actually dialed
		opts.IngestRun = "dead-server"
		plan.Apply(&opts)
		tl, err := tool.AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Detach() // a failure stops the tool inside the bubble too
		runWorkload(t, rt, 200)

		// On fake time the bound is exact: the net sink's 3s flush grace.
		start := time.Now()
		tl.Detach()
		if elapsed := time.Since(start); elapsed != 3*time.Second {
			t.Fatalf("Detach took %v with a dead server, want the 3s flush grace that bounds it", elapsed)
		}

		rep := tl.Report()
		if rep.IngestShippedChunks != 0 {
			t.Errorf("%d chunks shipped to a server that never accepted a dial", rep.IngestShippedChunks)
		}
		if plan.FiredCount(faultinject.KindDialError) == 0 {
			t.Error("the dial fault never fired: the sink did not even try to connect")
		}
		var dispatched uint64
		for _, n := range rep.Events {
			dispatched += n
		}
		got := uint64(rep.Samples) + rep.Dropped + rep.IngestDroppedSamples + rep.StreamDiscardedSamples
		if got != dispatched {
			t.Errorf("accounting: in-memory %d + dropped %d + ingest-dropped %d + discarded %d = %d, want %d dispatched",
				rep.Samples, rep.Dropped, rep.IngestDroppedSamples, rep.StreamDiscardedSamples, got, dispatched)
		}
		if rep.IngestDroppedSamples == 0 {
			t.Error("a dead server dropped nothing: the loss buckets went unexercised")
		}
	})
}

// TestChaosNetServerDeathMidRun cuts the first connection after a few
// frames: the server process is fine (it keeps the bytes it acked) but
// the link is gone. The sink must reconnect, learn the last accepted
// sequence, resend only the unacknowledged tail, and end with the
// server's run directory byte-identical to the local one.
func TestChaosNetServerDeathMidRun(t *testing.T) {
	srv, dataDir := startNetChaosServer(t)
	plan := faultinject.New(11)
	plan.CutConnAfterFrames(1, 4) // HELLO + 3 data frames, then dead

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	localDir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "mid-run-death"
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, rt, 300)
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatalf("stream error: %v", err)
	}

	rep := tl.Report()
	if plan.FiredCount(faultinject.KindConnCut) != 1 {
		t.Fatalf("connection cut fired %d times, want 1", plan.FiredCount(faultinject.KindConnCut))
	}
	if rep.IngestReconnects == 0 {
		t.Error("the sink never reconnected after the cut")
	}
	if rep.IngestDroppedChunks != 0 {
		t.Errorf("%d chunks dropped across a recoverable cut", rep.IngestDroppedChunks)
	}
	ri := waitRunDone(t, srv, "mid-run-death")
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
	}
	requireByteIdentical(t, localDir, filepath.Join(dataDir, "mid-run-death"))
	checkAccounting(t, rep, plan, parseStreamDir(t, localDir))
}

// TestChaosNetSlowLink lags every server response by 20ms. Nothing is
// lost on a slow link — delivery just takes longer — and the recording
// threads must not feel the latency at all.
func TestChaosNetSlowLink(t *testing.T) {
	srv, dataDir := startNetChaosServer(t)
	plan := faultinject.New(13)
	plan.DelayAcks(20 * time.Millisecond)

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	localDir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "slow-link"
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, rt, 300)
	tl.Detach()

	rep := tl.Report()
	if plan.FiredCount(faultinject.KindAckDelay) == 0 {
		t.Error("the ack delay never fired")
	}
	if rep.IngestDroppedChunks != 0 {
		t.Errorf("%d chunks dropped on a merely slow link", rep.IngestDroppedChunks)
	}
	if rep.IngestShippedChunks == 0 {
		t.Error("nothing shipped across the slow link")
	}
	ri := waitRunDone(t, srv, "slow-link")
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
	}
	requireByteIdentical(t, localDir, filepath.Join(dataDir, "slow-link"))
}

// TestChaosNetMidChunkDisconnect tears a frame halfway onto the wire
// and kills the connection: the server reads a torn frame it never
// acks, so the sink must resend that chunk whole on the next
// connection — the mirrored run directory proves no half-frame ever
// landed.
func TestChaosNetMidChunkDisconnect(t *testing.T) {
	srv, dataDir := startNetChaosServer(t)
	plan := faultinject.New(17)
	plan.TearConnFrame(1, 3) // the second data frame dies mid-write

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	localDir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "torn-frame"
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, rt, 300)
	tl.Detach()

	rep := tl.Report()
	if plan.FiredCount(faultinject.KindConnTear) != 1 {
		t.Fatalf("frame tear fired %d times, want 1", plan.FiredCount(faultinject.KindConnTear))
	}
	if rep.IngestReconnects == 0 {
		t.Error("the sink never reconnected after the torn frame")
	}
	if rep.IngestDroppedChunks != 0 {
		t.Errorf("%d chunks dropped across a torn frame", rep.IngestDroppedChunks)
	}
	ri := waitRunDone(t, srv, "torn-frame")
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
	}
	requireByteIdentical(t, localDir, filepath.Join(dataDir, "torn-frame"))
}
