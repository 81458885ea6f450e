package tool_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"goomp/internal/omp"
	. "goomp/internal/tool"
)

// failingFile writes nothing and fails while fail is set.
type failingFile struct {
	*os.File
	fail *atomic.Bool
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

// TestRetainedBlockOutlivesItsAck: thread 0's trace file fails every
// write, so each of its blocks waits in the file sink's retained
// backlog while the network sink ships it and psxd acks it. The ack lets
// the network sink go of the block but not of its buffer: the backlog
// still holds it, and the replay at stop must write the bytes psxd
// stored. The test waits for every ack and then records more chunks,
// so a buffer handed back too early would be encoded over before the
// replay.
func TestRetainedBlockOutlivesItsAck(t *testing.T) {
	srv, dataDir := startIngestServer(t)
	localDir := t.TempDir()
	var fail atomic.Bool
	fail.Store(true)

	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = localDir
	opts.IngestAddr = srv.Addr()
	opts.IngestRun = "retained"
	opts.OpenTraceFile = func(path string) (io.WriteCloser, error) {
		f, err := os.Create(path)
		if err != nil || filepath.Base(path) != "trace.0.psxt" {
			return f, err
		}
		return failingFile{f, &fail}, nil
	}
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// About ten chunks of thread 0 a batch: two batches stay below the
	// backlog's bound.
	batch := func() {
		for i := 0; i < 600; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {})
		}
	}
	acked := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			rep := tl.Report()
			if rep.IngestProducedChunks > 0 && rep.IngestShippedChunks == rep.IngestProducedChunks {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("psxd never acked every chunk")
			}
			time.Sleep(time.Millisecond)
		}
	}
	batch()
	acked()
	batch()
	acked()
	fail.Store(false)
	tl.Detach()

	rep := tl.Report()
	if rep.DegradedThreads != 1 || rep.StreamDiscardedChunks != 0 {
		t.Fatalf("%d degraded threads, %d chunks discarded; want 1 and 0", rep.DegradedThreads, rep.StreamDiscardedChunks)
	}
	waitRunComplete(t, srv, "retained")
	for _, name := range []string{"trace.0.psxt", "trace.1.psxt"} {
		sameFile(t, filepath.Join(localDir, name), filepath.Join(dataDir, "retained", name))
	}
	if n := streamSamples(t, filepath.Join(localDir, "trace.0.psxt")); n < 2*256 {
		t.Fatalf("thread 0's file holds %d samples: too few to have filled the backlog", n)
	}
}
