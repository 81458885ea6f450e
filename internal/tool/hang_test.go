package tool

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/super"
)

// TestHangSalvageStaysInItsDirectory: the hang report lands beside the
// traces it explains — in StreamDir when the tool streams to files,
// else in HangDir — and the salvage writes nowhere else, least of all
// into whatever trace file sits in the process's working directory.
func TestHangSalvageStaysInItsDirectory(t *testing.T) {
	srv, err := ingest.Serve("127.0.0.1:0", ingest.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cwd := t.TempDir()
	decoy := traceBlock(t, 3)
	if err := os.WriteFile(filepath.Join(cwd, "trace.0.psxt"), decoy, 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, tc := range []struct {
		name   string
		stream bool // a StreamDir beside HangDir; else the network is the only sink
	}{
		{"net-only", false},
		{"StreamDir", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := omp.New(omp.Config{NumThreads: 2})
			defer rt.Close()
			opts := FullMeasurement()
			opts.HangDir = t.TempDir()
			opts.OnHang = func(string) {}
			want := opts.HangDir
			if tc.stream {
				opts.StreamDir = t.TempDir()
				want = opts.StreamDir
			} else {
				opts.IngestAddr = srv.Addr()
				opts.IngestRun = "hang-" + tc.name
			}
			tl, err := AttachRuntime(rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				rt.Parallel(func(*omp.ThreadCtx) {})
			}
			tl.hangDetected(&super.HangReport{Verdict: super.VerdictNoProgress})

			if got := perf.HangReport(want); got == "" || got != tl.HangReport() {
				t.Errorf("%s in %s = %q, want the rendered report", perf.HangReportName, want, got)
			}
			if tc.stream {
				if ents, _ := os.ReadDir(opts.HangDir); len(ents) != 0 {
					t.Errorf("salvage wrote %d file(s) into HangDir while streaming to StreamDir", len(ents))
				}
			}
			ents, _ := os.ReadDir(cwd)
			got, _ := os.ReadFile(filepath.Join(cwd, "trace.0.psxt"))
			if len(ents) != 1 || !bytes.Equal(got, decoy) {
				t.Errorf("salvage touched the working directory: %d entries, decoy %d → %d bytes",
					len(ents), len(decoy), len(got))
			}
		})
	}
}
