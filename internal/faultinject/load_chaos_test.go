package faultinject_test

import (
	"path/filepath"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/degrade"
	"goomp/internal/faultinject"
	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

// The overload chaos suite drives the adaptive governor and the
// store-and-forward spill through the always-on failure modes: a
// measurement whose own cost exceeds its overhead budget, a psxd
// outage longer than the in-memory queue, and a burst flood into an
// overloaded daemon. The invariants: the governor converges under its
// ceiling through observable ladder steps, an outage shorter than the
// spill bound loses nothing (byte-identical replay), and every frame a
// flood sheds is counted exactly.

// checkChunkConservation asserts the sink's conservation equation:
// every produced chunk is in exactly one bucket at the end of the run.
func checkChunkConservation(t *testing.T, rep *tool.Report) {
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

// TestChaosLoadCeilingConvergence arms the governor with a 1% ceiling
// the full-fidelity measurement cannot meet on an all-overhead
// workload, under sustained external jitter (periodic slow callbacks).
// The ladder must step down for the over-ceiling reason and the EWMA
// must converge under the ceiling at a degraded rung — and the
// external jitter, which inflates wall time but not the governor's own
// metered cost, must not be mistaken for profiling overhead.
func TestChaosLoadCeilingConvergence(t *testing.T) {
	plan := faultinject.New(29)
	plan.DelayEvery(collector.EventJoin, 10, 100*time.Microsecond)

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := tool.FullMeasurement()
	opts.OverheadCeiling = 0.01
	opts.GovernorTick = 2 * time.Millisecond
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()

	deadline := time.Now().Add(30 * time.Second)
	converged := false
	for !converged {
		if time.Now().After(deadline) {
			rep := tl.Report()
			t.Fatalf("never converged under the ceiling: level=%v ratio=%v ceiling=%v steps=%v",
				rep.GovernorLevel, rep.GovernorRatio, rep.GovernorCeiling, rep.GovernorSteps)
		}
		for i := 0; i < 100; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
		rep := tl.Report()
		converged = rep.GovernorLevel > degrade.LevelFull &&
			rep.GovernorRatio <= rep.GovernorCeiling
	}

	rep := tl.Report()
	overCeiling := false
	for _, tr := range rep.GovernorSteps {
		if tr.Reason == degrade.ReasonOverCeiling {
			overCeiling = true
		}
	}
	if !overCeiling {
		t.Errorf("no over-ceiling step in the history: %v", rep.GovernorSteps)
	}
	if plan.FiredCount(faultinject.KindDelay) == 0 {
		t.Error("the sustained jitter never fired")
	}
}

// TestChaosLoadOutageSpillReplay cuts the connection mid-run and then
// fails the next six redials — an outage far longer than the
// two-frame in-memory queue. The backlog must take the on-disk
// store-and-forward detour, replay in order once the daemon returns,
// and the run must end complete with zero loss: the conservation
// equation balances with an empty drop bucket, the server's directory
// is byte-identical to the local tee, and the BYE carries the exact
// spill accounting into the manifest.
func TestChaosLoadOutageSpillReplay(t *testing.T) {
	srv, dataDir := startNetChaosServer(t)
	plan := faultinject.New(31)
	plan.CutConnAfterFrames(1, 4) // HELLO + 3 data frames, then dead
	plan.FailDialRange(2, 6)      // ~1.6s of capped-backoff outage

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	localDir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "outage-spill"
	opts.IngestPendingDepth = 2 // tiny queue: the outage overruns it fast
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Produce until the backlog has demonstrably hit the disk, so the
	// assertion never depends on chunk-size timing against the outage
	// window.
	deadline := time.Now().Add(30 * time.Second)
	for tl.Report().IngestSpilledChunks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spill never engaged during the outage")
		}
		runWorkload(t, rt, 100)
	}
	runWorkload(t, rt, 200)
	tl.Detach()

	rep := tl.Report()
	checkChunkConservation(t, rep)
	if got := plan.FiredCount(faultinject.KindConnCut); got != 1 {
		t.Errorf("connection cut fired %d times, want 1", got)
	}
	if got := plan.FiredCount(faultinject.KindDialError); got != 6 {
		t.Errorf("outage window failed %d dials, want 6", got)
	}
	if rep.IngestDroppedChunks != 0 || rep.IngestSpillPendingChunks != 0 {
		t.Fatalf("outage shorter than the spill bound lost data: dropped=%d pending=%d",
			rep.IngestDroppedChunks, rep.IngestSpillPendingChunks)
	}
	if rep.IngestSpilledChunks == 0 || rep.IngestReplayedChunks != rep.IngestSpilledChunks {
		t.Fatalf("spilled %d, replayed %d: the detour must deliver everything",
			rep.IngestSpilledChunks, rep.IngestReplayedChunks)
	}
	ri := waitRunDone(t, srv, "outage-spill")
	if ri.Chunks != rep.IngestShippedChunks+rep.IngestReplayedChunks {
		t.Errorf("server landed %d chunks, client shipped %d + replayed %d",
			ri.Chunks, rep.IngestShippedChunks, rep.IngestReplayedChunks)
	}
	requireByteIdentical(t, localDir, filepath.Join(dataDir, "outage-spill"))
	m, err := ingest.ReadManifest(filepath.Join(dataDir, "outage-spill"))
	if err != nil {
		t.Fatal(err)
	}
	if m.ClientProduced != rep.IngestProducedChunks ||
		m.ClientSpilled != rep.IngestSpilledChunks ||
		m.ClientReplayed != rep.IngestReplayedChunks ||
		m.ClientDropped != 0 {
		t.Errorf("manifest accounting (produced %d spilled %d replayed %d dropped %d) does not match the report (produced %d spilled %d replayed %d)",
			m.ClientProduced, m.ClientSpilled, m.ClientReplayed, m.ClientDropped,
			rep.IngestProducedChunks, rep.IngestSpilledChunks, rep.IngestReplayedChunks)
	}
}

// TestChaosLoadBurstFlood floods a daemon that cannot keep up: a
// one-frame ingest queue drained through per-chunk fsyncs that each
// take 5ms. The server sheds with OVERLOADED acks; the client must
// count every shed frame exactly, the governor must take the
// backpressure signal as ladder steps, and the registry must agree
// with the client about what actually landed.
func TestChaosLoadBurstFlood(t *testing.T) {
	plan := faultinject.New(37)
	plan.SlowSync("trace", 5*time.Millisecond)
	dir := t.TempDir()
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{
		Dir:              dir,
		QueueDepth:       1,
		BackpressureWait: time.Millisecond,
		Fsync:            ingest.FsyncPolicy{Mode: ingest.FsyncEveryN, N: 1},
		FS:               plan.IngestFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := tool.FullMeasurement()
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "burst-flood"
	opts.OverheadCeiling = 0.9 // generous: only backpressure can step it
	opts.GovernorTick = 2 * time.Millisecond
	plan.Apply(&opts)
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for tl.Report().IngestOverloadedAcks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the flood never drew an OVERLOADED ack")
		}
		runWorkload(t, rt, 200)
	}
	// The backpressure latch is consumed by the governor's next tick;
	// hold the flood until the ladder visibly moves.
	stepped := func() bool {
		for _, tr := range tl.Report().GovernorSteps {
			if tr.Reason == degrade.ReasonBackpressure {
				return true
			}
		}
		return false
	}
	for !stepped() {
		if time.Now().After(deadline) {
			t.Fatal("the OVERLOADED acks never stepped the governor")
		}
		runWorkload(t, rt, 50)
	}
	tl.Detach()

	rep := tl.Report()
	checkChunkConservation(t, rep)
	if rep.IngestOverloadedAcks == 0 {
		t.Fatal("no OVERLOADED acks recorded")
	}
	if rep.IngestDroppedChunks == 0 {
		t.Error("the daemon shed frames but the client counted no drops")
	}
	backpressure := false
	for _, tr := range rep.GovernorSteps {
		if tr.Reason == degrade.ReasonBackpressure {
			backpressure = true
		}
	}
	if !backpressure {
		t.Errorf("OVERLOADED acks never reached the governor: %v", rep.GovernorSteps)
	}
	ri := waitRunDone(t, srv, "burst-flood")
	if ri.Chunks != rep.IngestShippedChunks+rep.IngestReplayedChunks {
		t.Errorf("server landed %d chunks, client shipped %d + replayed %d",
			ri.Chunks, rep.IngestShippedChunks, rep.IngestReplayedChunks)
	}
	// The BYE records the shed frames, so offline readers see the loss.
	m, err := ingest.ReadManifest(filepath.Join(dir, "burst-flood"))
	if err != nil {
		t.Fatal(err)
	}
	if m.ClientDropped != rep.IngestDroppedChunks {
		t.Errorf("manifest records %d dropped chunks, client counted %d",
			m.ClientDropped, rep.IngestDroppedChunks)
	}
	// Both ends kept books and psxd closed them across the wire: what
	// it shed is in the client's dropped count, so nothing is left over,
	// and each side's own ledger balances.
	if m.Unstored != nil || ri.Unstored != nil {
		t.Errorf("books did not close at BYE: manifest %+v, /runs %+v", m.Unstored, ri.Unstored)
	}
	if ri.DroppedChunks == 0 {
		t.Error("psxd's ledger booked nothing shed")
	}
	if err := tl.StreamError(); err != nil {
		t.Errorf("client ledgers: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("psxd ledgers: %v", err)
	}
}
