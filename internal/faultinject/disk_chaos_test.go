package faultinject_test

import (
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

// The disk chaos suite drives the ingest server's storage path through
// the failure modes a real fleet disk serves up: the daemon killed
// mid-write, the disk filling under one run while others keep flowing,
// and a crash at the atomic manifest commit point. The invariants: a
// restarted daemon recovers exactly what the journal covers and not a
// byte more, a durable client's resend tail closes the gap to
// byte-identical, storage loss is typed INGEST_STORAGE and confined to
// the run whose disk failed, and the conservation accounting law holds
// through all of it.

// restartIngest rebinds a recovering daemon on the exact address the
// killed one held, so a reconnecting sink needs no redirection.
func restartIngest(t *testing.T, addr string, o ingest.Options) *ingest.Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv, err := ingest.Serve(addr, o)
		if err == nil {
			t.Cleanup(func() { srv.Close() })
			return srv
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarting psxd on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitRunWithin is waitRunDone with a caller-chosen deadline — the
// restart tests cross a reconnect backoff, so the default is tight.
func waitRunWithin(t *testing.T, srv *ingest.Server, run string, d time.Duration) ingest.RunInfo {
	t.Helper()
	deadline := time.Now().Add(d)
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

// TestChaosDiskCrashRestartMidChunk is the headline durability test:
// the daemon is killed (exactly as by kill -9) halfway through writing
// a trace block — the torn half really lands on disk, no ack escapes.
// A new daemon on the same address and data dir must replay the
// journal, truncate the torn tail at the last valid entry, answer the
// reconnecting durable sink with the recovered sequence, and accept
// the resent tail — ending with the run directory byte-identical to
// the uninterrupted tee-mode local directory.
func TestChaosDiskCrashRestartMidChunk(t *testing.T) {
	plan := faultinject.New(29)
	dataDir := t.TempDir()
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: dataDir, FS: plan.IngestFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr()

	killed := make(chan struct{})
	plan.SetOnCrash(func() {
		srv.Kill()
		close(killed)
	})
	plan.CrashOnWrite("trace.", 4) // the 4th trace-block write tears and the daemon dies

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	localDir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = addr
	opts.IngestRun = "crash-restart"
	opts.IngestDurable = true
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, rt, 300)

	// The sink keeps draining after the workload; the 4th block write
	// fires the crash.
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("the crash write never fired: fewer than 4 blocks reached the server")
	}
	if got := plan.FiredCount(faultinject.KindCrashWrite); got != 1 {
		t.Fatalf("crash write fired %d times, want 1", got)
	}

	// Restart on the same address and data dir: recovery replays the
	// journal and truncates the torn block away before accepting.
	srv2 := restartIngest(t, addr, ingest.Options{Dir: dataDir, FS: plan.IngestFS()})
	if rec := srv2.Recovered(); rec.Salvaged == 0 {
		t.Errorf("restart recovered %d runs but salvaged none; a torn-tail run was on disk", rec.Runs)
	}

	runWorkload(t, rt, 200)
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatalf("stream error: %v", err)
	}

	rep := tl.Report()
	if rep.IngestReconnects == 0 {
		t.Error("the sink never reconnected across the daemon restart")
	}
	if rep.IngestDroppedChunks != 0 {
		t.Errorf("%d chunks dropped across a recoverable daemon crash", rep.IngestDroppedChunks)
	}
	if rep.IngestStorageChunks != 0 {
		t.Errorf("%d chunks refused INGEST_STORAGE on a healthy disk", rep.IngestStorageChunks)
	}
	ri := waitRunWithin(t, srv2, "crash-restart", 15*time.Second)
	if !ri.Salvaged {
		t.Error("the recovered run is not marked salvaged")
	}
	if !ri.Durable {
		t.Error("the recovered run lost its durable mode")
	}
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
	}
	runDir := filepath.Join(dataDir, "crash-restart")
	requireByteIdentical(t, localDir, runDir)
	if m, err := ingest.ReadManifest(runDir); err != nil {
		t.Errorf("reading sealed manifest: %v", err)
	} else if !m.Complete || !m.Salvaged {
		t.Errorf("sealed manifest: complete=%v salvaged=%v, want both true", m.Complete, m.Salvaged)
	}
	checkAccounting(t, rep, plan, parseStreamDir(t, localDir))
}

// streamedTraceBytes runs regions empty parallel regions on two threads
// under full measurement, streamed to a local directory only, and
// returns the bytes of the trace files they leave.
func streamedTraceBytes(t *testing.T, regions int) int64 {
	t.Helper()
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := tool.FullMeasurement()
	opts.StreamDir = t.TempDir()
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, rt, regions)
	tl.Detach()
	files, err := filepath.Glob(filepath.Join(opts.StreamDir, "trace.*.psxt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("probe run left no trace files: %v", err)
	}
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// TestChaosDiskFullQuarantinesOneRun fills the disk under one run
// while a second run shares the daemon: the doomed run must be
// quarantined with the typed INGEST_STORAGE code — not folded into
// generic drops — and the healthy run must keep ingesting to a
// byte-identical finish, untouched by its neighbour's dead disk.
func TestChaosDiskFullQuarantinesOneRun(t *testing.T) {
	const regions = 250
	plan := faultinject.New(31)
	// The disk fills halfway through what the doomed run's workload
	// writes on a healthy disk: a byte count fixed for one block encoding
	// stops firing once blocks shrink.
	plan.DiskFullAfter(filepath.Join("doomed-run", "trace."), streamedTraceBytes(t, regions)/2)

	dataDir := t.TempDir()
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: dataDir, FS: plan.IngestFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	rtA := omp.New(omp.Config{NumThreads: 2})
	defer rtA.Close()
	rtB := omp.New(omp.Config{NumThreads: 2})
	defer rtB.Close()
	localA, localB := t.TempDir(), t.TempDir()

	optsA := tool.FullMeasurement()
	optsA.StreamDir = localA
	optsA.IngestAddr = srv.Addr()
	optsA.IngestRun = "doomed-run"
	optsA.IngestDurable = true
	tlA, err := tool.AttachRuntime(rtA, optsA)
	if err != nil {
		t.Fatal(err)
	}
	optsB := tool.FullMeasurement()
	optsB.StreamDir = localB
	optsB.IngestAddr = srv.Addr()
	optsB.IngestRun = "healthy-run"
	optsB.IngestDurable = true
	tlB, err := tool.AttachRuntime(rtB, optsB)
	if err != nil {
		t.Fatal(err)
	}

	// Interleave the two runs so the healthy one is mid-flight when its
	// neighbour's disk dies.
	start := time.Now()
	for i := 0; i < regions; i++ {
		rtA.Parallel(func(tc *omp.ThreadCtx) {})
		rtB.Parallel(func(tc *omp.ThreadCtx) {})
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("workload took %v: a dead disk is blocking recording threads", elapsed)
	}
	tlA.Detach()
	tlB.Detach()

	if plan.FiredCount(faultinject.KindDiskFull) == 0 {
		t.Fatal("ENOSPC never fired: the byte budget was not reached")
	}
	repA, repB := tlA.Report(), tlB.Report()

	// The doomed run: typed storage refusals, not generic drops.
	if repA.IngestStorageChunks == 0 {
		t.Error("no chunk was refused INGEST_STORAGE on a full disk")
	}
	if repA.IngestDroppedChunks != 0 {
		t.Errorf("%d chunks in the generic drop bucket; storage loss must be typed", repA.IngestDroppedChunks)
	}
	riA := waitRunDone(t, srv, "doomed-run")
	if !riA.Quarantined {
		t.Error("the run whose disk filled is not quarantined")
	}
	if riA.StorageChunks == 0 {
		t.Error("the server counted no storage-refused chunks for the quarantined run")
	}

	// The healthy run: completely unaffected.
	if repB.IngestStorageChunks != 0 {
		t.Errorf("%d chunks refused INGEST_STORAGE on the healthy run", repB.IngestStorageChunks)
	}
	if repB.IngestDroppedChunks != 0 {
		t.Errorf("%d chunks dropped on the healthy run", repB.IngestDroppedChunks)
	}
	riB := waitRunDone(t, srv, "healthy-run")
	if riB.Quarantined {
		t.Error("the healthy run was quarantined by its neighbour's dead disk")
	}
	if riB.Chunks != repB.IngestShippedChunks {
		t.Errorf("healthy run landed %d chunks, client shipped %d", riB.Chunks, repB.IngestShippedChunks)
	}
	requireByteIdentical(t, localB, filepath.Join(dataDir, "healthy-run"))
	checkAccounting(t, repA, plan, parseStreamDir(t, localA))
	checkAccounting(t, repB, plan, parseStreamDir(t, localB))
}

// TestChaosDiskCrashAtManifestSeal kills the daemon at the run's
// commit point: the BYE is journaled and every block synced, but the
// crash lands exactly before the manifest rename. Recovery must trust
// the journal, replay the run to complete, and the directory must
// still be byte-identical — the atomic seal leaves no window where a
// finished run can be half-trusted.
func TestChaosDiskCrashAtManifestSeal(t *testing.T) {
	faketime.Run(t, func(t *testing.T) {
		plan := faultinject.New(37)
		dataDir := t.TempDir()
		srv, dial := servePipe(t, ingest.Options{Dir: dataDir, FS: plan.IngestFS()})
		defer srv.Close()

		killed := make(chan struct{})
		plan.SetOnCrash(func() {
			srv.Kill()
			close(killed)
		})

		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		localDir := t.TempDir()
		opts := tool.FullMeasurement()
		opts.StreamDir = localDir
		opts.IngestAddr = srv.Addr()
		opts.IngestRun = "seal-crash"
		opts.IngestDurable = true
		opts.DialIngest = dial
		tl, err := tool.AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Detach() // a failure stops the tool inside the bubble too
		runWorkload(t, rt, 300)

		// Arm the rename crash only once the run exists, so the initial
		// identity manifest (written at run creation) is past; the next
		// manifest rename is the BYE's atomic seal.
		faketime.Wait()
		found := false
		for _, ri := range srv.Runs() {
			if ri.ID == "seal-crash" && ri.Chunks > 0 {
				found = true
			}
		}
		if !found {
			t.Fatal("no chunk ever landed on the server")
		}
		plan.CrashOnRename(manifestBase, false)

		tl.Detach() // BYE → journal + sync + manifest rename → crash
		select {
		case <-killed:
		case <-time.After(10 * time.Second):
			t.Fatal("the manifest-rename crash never fired")
		}
		if got := plan.FiredCount(faultinject.KindCrashRename); got != 1 {
			t.Fatalf("rename crash fired %d times, want 1", got)
		}

		// A fresh daemon over the same data dir: the journal holds the BYE,
		// so recovery replays the run all the way to complete.
		srv2, _ := servePipe(t, ingest.Options{Dir: dataDir})
		defer srv2.Close()
		ri := completedRun(t, srv2, "seal-crash")
		if !ri.Salvaged {
			t.Error("the recovered run is not marked salvaged")
		}
		runDir := filepath.Join(dataDir, "seal-crash")
		requireByteIdentical(t, localDir, runDir)
		if m, err := ingest.ReadManifest(runDir); err != nil {
			t.Errorf("reading recovered manifest: %v", err)
		} else if !m.Complete {
			t.Error("recovery did not replay the journaled BYE to a complete manifest")
		}
		rep := tl.Report()
		checkAccounting(t, rep, plan, parseStreamDir(t, localDir))
	})
}

// manifestBase matches only the atomic-rename target, not the journal
// or trace files.
const manifestBase = "MANIFEST.json"
