package faultinject_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"goomp/internal/faketime"
	"goomp/internal/faultinject"
	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

// PSX2 is the only block format the tool writes. The first test pins
// that for every write path; the chaos regressions after it re-run the
// network and disk failures with flate on, because the resend tail and
// the journal both carry the originally encoded bytes — a chunk is
// never re-encoded after it is staged, so a replay after any tear must
// land bit-for-bit what the local tee holds even though flate output
// is not canonical.

// requireV2Files asserts that every block of every trace file in dir
// is a PSX2 block.
func requireV2Files(t *testing.T, dir string) {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "trace.*.psxt"))
	if len(files) == 0 {
		t.Fatalf("no trace files in %s", dir)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(f)
		blocks := 0
		for {
			head, _ := br.Peek(4)
			if len(head) == 0 {
				break
			}
			if !perf.IsV2Block(head) {
				t.Errorf("%s: block %d starts %q, not a PSX2 block", path, blocks, head)
				break
			}
			if _, err := perf.ReadTrace(br); err != nil {
				t.Errorf("%s: block %d: %v", path, blocks, err)
				break
			}
			blocks++
		}
		f.Close()
		if blocks == 0 {
			t.Errorf("%s holds no trace block", path)
		}
	}
}

// TestEveryWritePathWritesPSX2 drives each way the tool can put a
// trace block somewhere — the streamed file, the network sink teed
// with it (also through an outage that spills) and alone, the
// WriteTraces snapshot, and the hang handler's salvage — under default
// options, and walks every block that landed.
func TestEveryWritePathWritesPSX2(t *testing.T) {
	srv, dataDir := startNetChaosServer(t)
	for _, tc := range []struct {
		name     string
		fakeTime bool // run in a faketime bubble
		// run profiles a workload with opts, given a scratch directory,
		// and returns the directories its blocks landed in.
		run func(t *testing.T, rt *omp.RT, opts tool.Options, dir string) []string
	}{
		{"StreamDir", false, func(t *testing.T, rt *omp.RT, opts tool.Options, dir string) []string {
			opts.StreamDir = dir
			profile(t, rt, opts)
			return []string{dir}
		}},
		{"IngestAddr tee", false, func(t *testing.T, rt *omp.RT, opts tool.Options, dir string) []string {
			opts.StreamDir = dir
			opts.IngestAddr = srv.Addr()
			opts.IngestRun = "psx2-tee"
			profile(t, rt, opts)
			waitRunDone(t, srv, opts.IngestRun)
			return []string{dir, filepath.Join(dataDir, opts.IngestRun)}
		}},
		{"IngestAddr tee through an outage", true, func(t *testing.T, rt *omp.RT, opts tool.Options, dir string) []string {
			// The daemon is gone for the first six dials and the queue
			// holds two frames, so the backlog spills. The spill writes
			// nothing of its own: the local directory holds the trace
			// files and no other format. This path runs on fake time,
			// so it has a daemon of its own on an in-memory listener.
			dataDir := t.TempDir()
			srv, dial := servePipe(t, ingest.Options{Dir: dataDir})
			defer srv.Close()
			plan := faultinject.New(41)
			plan.FailDialRange(1, 6)
			opts.StreamDir = dir
			opts.IngestAddr = srv.Addr()
			opts.IngestRun = "psx2-outage"
			opts.IngestPendingDepth = 2
			opts.DialIngest = plan.Dialer(dial)
			tl, err := tool.AttachRuntime(rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tl.Detach() // a failure stops the tool inside the bubble too
			// A millisecond's sleep after each round lets the fake clock,
			// and the sink's reconnect backoff with it, move on.
			for round := 0; tl.Report().IngestSpilledChunks == 0; round++ {
				if round == 10000 {
					t.Fatal("spill never engaged during the outage")
				}
				runWorkload(t, rt, 50)
				time.Sleep(time.Millisecond)
			}
			tl.Detach()
			if err := tl.StreamError(); err != nil {
				t.Fatal(err)
			}
			completedRun(t, srv, opts.IngestRun)
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if ok, _ := filepath.Match("trace.*.psxt", e.Name()); !ok {
					t.Errorf("the spill left %s in the stream directory", e.Name())
				}
			}
			return []string{dir, filepath.Join(dataDir, opts.IngestRun)}
		}},
		{"IngestAddr net-only", false, func(t *testing.T, rt *omp.RT, opts tool.Options, dir string) []string {
			opts.IngestAddr = srv.Addr()
			opts.IngestRun = "psx2-net"
			profile(t, rt, opts)
			waitRunDone(t, srv, opts.IngestRun)
			return []string{filepath.Join(dataDir, opts.IngestRun)}
		}},
		{"WriteTraces", false, func(t *testing.T, rt *omp.RT, opts tool.Options, dir string) []string {
			tl := profile(t, rt, opts)
			var files []*os.File
			err := tl.WriteTraces(func(thread int32) (io.Writer, error) {
				f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace.%d.psxt", thread)))
				if err != nil {
					return nil, err
				}
				files = append(files, f)
				return f, nil
			})
			for _, f := range files {
				f.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			return []string{dir}
		}},
		{"hang salvage", false, func(t *testing.T, rt *omp.RT, _ tool.Options, dir string) []string {
			tl, ch := attachSupervised(t, rt, dir)
			defer tl.Detach()
			runWorkload(t, rt, 20)
			plan := faultinject.New(3)
			plan.StallAt("before-barrier")
			done := make(chan struct{})
			go func() {
				defer close(done)
				rt.Parallel(func(tc *omp.ThreadCtx) {
					if tc.ThreadNum() == 0 {
						plan.Stall("before-barrier")
					}
				})
			}()
			checkSalvage(t, dir, awaitHang(t, ch, time.Now()))
			plan.Release()
			<-done
			return []string{dir}
		}},
	} {
		walk := func(t *testing.T) {
			rt := omp.New(omp.Config{NumThreads: 2})
			defer rt.Close()
			for _, dir := range tc.run(t, rt, tool.FullMeasurement(), t.TempDir()) {
				requireV2Files(t, dir)
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			if tc.fakeTime {
				faketime.Run(t, walk)
			} else {
				walk(t)
			}
		})
	}
}

// profile attaches a tool with opts, runs enough regions to seal
// several chunks per thread, and detaches.
func profile(t *testing.T, rt *omp.RT, opts tool.Options) *tool.Tool {
	t.Helper()
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, rt, 300)
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestChaosNetMidChunkDisconnectV2 is the reconnect-mid-chunk
// regression with flate on: a frame torn halfway onto the wire is
// resent whole from the retained originally-encoded bytes on the next
// connection, so the mirrored run directory stays byte-identical to
// the local tee — a re-encode (even a semantically equal one) would
// break the mirror because flate output is not canonical.
func TestChaosNetMidChunkDisconnectV2(t *testing.T) {
	srv, dataDir := startNetChaosServer(t)
	plan := faultinject.New(17)
	plan.TearConnFrame(1, 3) // the second data frame dies mid-write

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	localDir := t.TempDir()
	opts := tool.FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "torn-frame-v2"
	opts.TraceCompress = true
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
	ri := waitRunDone(t, srv, "torn-frame-v2")
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
	}
	requireV2Files(t, localDir)
	requireByteIdentical(t, localDir, filepath.Join(dataDir, "torn-frame-v2"))
}

// TestChaosDiskCrashRestartMidChunkV2 re-runs the headline durability
// scenario with compressed blocks: the daemon dies mid-write of a
// flate-compressed block, the restart replays the journal (whose CRCs
// cover the encoded on-disk bytes, so a torn compressed tail fails
// validation like any other torn block), and the durable sink
// resends the staged originals until the mirror is byte-identical.
func TestChaosDiskCrashRestartMidChunkV2(t *testing.T) {
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
	opts.IngestRun = "crash-restart-v2"
	opts.IngestDurable = true
	opts.TraceCompress = true
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, rt, 300)

	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("the crash write never fired: fewer than 4 blocks reached the server")
	}
	if got := plan.FiredCount(faultinject.KindCrashWrite); got != 1 {
		t.Fatalf("crash write fired %d times, want 1", got)
	}

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
	ri := waitRunWithin(t, srv2, "crash-restart-v2", 15*time.Second)
	if !ri.Salvaged {
		t.Error("the recovered run is not marked salvaged")
	}
	if ri.Chunks != rep.IngestShippedChunks {
		t.Errorf("server landed %d chunks, client shipped %d", ri.Chunks, rep.IngestShippedChunks)
	}
	runDir := filepath.Join(dataDir, "crash-restart-v2")
	requireV2Files(t, localDir)
	requireByteIdentical(t, localDir, runDir)
	checkAccounting(t, rep, plan, parseStreamDir(t, localDir))
}
