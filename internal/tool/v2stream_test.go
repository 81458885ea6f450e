package tool_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"goomp/internal/faultinject"
	"goomp/internal/omp"
	. "goomp/internal/tool"
)

// TestStreamV2RoundTrip streams a run plain and deflated and reads the
// directory back through the auto-detecting reader: every dispatched
// sample must come back, and the files must hold v2 blocks.
func TestStreamV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"v2", false}, {"v2-flate", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := omp.New(omp.Config{NumThreads: 4})
			defer rt.Close()
			dir := t.TempDir()
			opts := FullMeasurement()
			opts.StreamDir = dir
			opts.TraceCompress = tc.compress
			tl, err := AttachRuntime(rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				rt.Parallel(func(c *omp.ThreadCtx) {})
			}
			tl.Detach()
			if err := tl.StreamError(); err != nil {
				t.Fatal(err)
			}
			rep := tl.Report()
			total, _ := readDirSamples(t, dir)
			if want := dispatched(rep); uint64(total) != want {
				t.Errorf("read back %d samples, want %d", total, want)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "trace.0.psxt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(raw, []byte("PSX2")) {
				t.Errorf("trace file does not start with a v2 block (got %q)", raw[:4])
			}
		})
	}
}

// TestStreamV2DegradedRecoveryAtStop re-runs the degraded-thread
// recovery scenario with flate on: the retained backlog is replayed
// from the originally staged block bytes (never re-encoded), so the
// recovered file must hold every dispatched sample.
func TestStreamV2DegradedRecoveryAtStop(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 1})
	defer rt.Close()
	plan := faultinject.New(8)
	plan.FailOpen(0, 4) // all run-time opens fail; the stop-time reopen lands

	dir := t.TempDir()
	opts := FullMeasurement()
	opts.StreamDir = dir
	opts.TraceCompress = true
	plan.Apply(&opts)
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		rt.Parallel(func(c *omp.ThreadCtx) {})
	}
	tl.Detach()

	rep := tl.Report()
	total, _ := readDirSamples(t, dir)
	if want := dispatched(rep); uint64(total) != want {
		t.Errorf("recovered %d samples, want all %d dispatched", total, want)
	}
	if rep.StreamDiscardedSamples != 0 {
		t.Errorf("stop-time recovery discarded %d samples", rep.StreamDiscardedSamples)
	}
	if rep.DegradedThreads != 1 {
		t.Errorf("degraded threads = %d, want 1", rep.DegradedThreads)
	}
}
