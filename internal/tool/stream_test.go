package tool_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

func TestStreamingStorage(t *testing.T) {
	dir := t.TempDir()
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = dir
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}

	const regions = 40
	for i := 0; i < regions; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
		if i == regions/2 {
			// Let a few flush ticks pass mid-run so chunks actually
			// stream while the workload is alive.
			time.Sleep(10 * time.Millisecond)
		}
	}
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatalf("stream error: %v", err)
	}

	// Read back the streamed chunks and account for every fork/join.
	var forks, joins, total int
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no streamed files: %v", err)
	}
	multiChunk := false
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		stat, _ := f.Stat()
		buf, err := perf.ReadTraceStream(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if stat.Size() > 0 && len(buf.Samples()) > 0 {
			total += len(buf.Samples())
		}
		for _, s := range buf.Samples() {
			switch collector.Event(s.Event) {
			case collector.EventFork:
				forks++
			case collector.EventJoin:
				joins++
			}
		}
		_ = multiChunk
	}
	if forks != regions || joins != regions {
		t.Errorf("streamed forks/joins = %d/%d, want %d/%d", forks, joins, regions, regions)
	}
	if total == 0 {
		t.Error("no samples streamed")
	}
	// The in-memory report must be (nearly) empty: storage went to disk.
	if rep := tl.Report(); rep.Samples > 8 {
		t.Errorf("report still holds %d samples; streaming should have drained them", rep.Samples)
	}
}

// TestStreamedDropsMatchReport: with buffers that drop samples at
// their limit before a chunk ever fills, every drop reaches the trace
// files through the residue, and a quiesced detach counts the same
// drops in its report that the files carry.
func TestStreamedDropsMatchReport(t *testing.T) {
	dir := t.TempDir()
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = dir
	opts.BufferLimit = perf.ChunkSamples / 4
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perf.ChunkSamples; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	tl.Detach()
	if err := tl.StreamError(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	rep := tl.Report()
	if len(rep.Wedged) != 0 {
		t.Fatalf("detach did not quiesce: %v", rep.Wedged)
	}
	if rep.Dropped == 0 {
		t.Fatal("no samples dropped at the buffer limit")
	}
	paths, err := perf.FindTraceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dropped uint64
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := perf.ReadTraceStream(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		dropped += buf.Dropped()
	}
	if dropped != rep.Dropped {
		t.Errorf("trace files carry %d dropped samples, report counts %d", dropped, rep.Dropped)
	}
}

func TestStreamingJoinStacksSurviveChunking(t *testing.T) {
	dir := t.TempDir()
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = dir
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
		time.Sleep(2 * time.Millisecond) // force chunk boundaries
	}
	tl.Detach()

	f, err := os.Open(filepath.Join(dir, "trace.0.psxt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf, err := perf.ReadTraceStream(f)
	if err != nil {
		t.Fatal(err)
	}
	// Every join sample's rebased stack ID must resolve.
	joinsWithStacks := 0
	for _, s := range buf.Samples() {
		if collector.Event(s.Event) == collector.EventJoin && s.StackID != perf.NoStack {
			if buf.Stack(s.StackID) == nil {
				t.Fatalf("join stack ID %d does not resolve after rebasing", s.StackID)
			}
			joinsWithStacks++
		}
	}
	if joinsWithStacks != 10 {
		t.Errorf("joins with stacks = %d, want 10", joinsWithStacks)
	}
}

func TestStreamingBadDirectory(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 1})
	defer rt.Close()
	opts := FullMeasurement()
	opts.StreamDir = string([]byte{0}) // invalid path
	if _, err := AttachRuntime(rt, opts); err == nil {
		t.Error("invalid stream dir accepted")
	}
	// The failed attach must have stopped the collector so a fresh
	// attach works.
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatalf("re-attach after failed stream attach: %v", err)
	}
	tl.Detach()
}
