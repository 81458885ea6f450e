// Command tracedump reads the binary per-thread traces written by the
// collector tool (ompprof -trace, or tool.WriteTraces) and prints them
// — the offline half of the paper's measurement pipeline, where
// performance data collected during the run is reconstructed after the
// application finishes.
//
// Symbol resolution of stack PCs is only meaningful inside the process
// that produced them, so tracedump prints events, states, regions and
// timing, plus numeric stack summaries.
//
// Each argument may be a single .psxt file, a directory of per-thread
// trace files (a StreamDir, an ompprof -trace dir, or one psxd run
// directory), or a psxd data root holding per-run subdirectories.
//
// Usage:
//
//	tracedump [-summary] trace.0.psxt [trace.1.psxt ...]
//	tracedump [-summary] STREAM_DIR | PSXD_DIR | PSXD_DIR/RUN
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"goomp/internal/collector"
	"goomp/internal/ingest"
	"goomp/internal/perf"
)

func main() {
	summary := flag.Bool("summary", false, "print per-region statistics instead of raw samples")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracedump [-summary] trace.psxt|DIR ...")
		os.Exit(2)
	}
	exit := 0
	for _, arg := range flag.Args() {
		paths, err := perf.FindTraceFiles(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracedump: %s: %v\n", arg, err)
			exit = 1
			continue
		}
		for _, path := range paths {
			if err := dump(path, *summary); err != nil {
				fmt.Fprintf(os.Stderr, "tracedump: %s: %v\n", path, err)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

func dump(path string, summary bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Streamed traces are a sequence of chunk blocks; the reader merges
	// them (and reads single-block WriteTraces files unchanged). A torn
	// file — truncated by a crash or a failed write — still yields its
	// gap-free prefix: print what survived with a warning rather than
	// discarding a salvageable trace.
	buf, err := perf.ReadTraceStream(f)
	if err != nil {
		if buf == nil || buf.Len() == 0 {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracedump: %s: %v; dumping the intact prefix\n", path, err)
	}
	samples := buf.Samples()
	fmt.Printf("%s: %d samples, %d distinct stacks, %d dropped\n",
		path, len(samples), buf.NumStacks(), buf.Dropped())
	// A psxd run directory carries a manifest; if the daemon salvaged
	// this run from its journal after a crash, say so next to the data.
	// A quarantined seal (storage failed before the BYE) has not been
	// re-validated yet, so its tail may be torn — warn louder. A hang
	// salvage leaves the supervisor's report beside the traces.
	dir := filepath.Dir(path)
	if m, err := ingest.ReadManifest(dir); err == nil {
		if m.Quarantined {
			fmt.Printf("  WARNING: quarantined run — the ingest daemon's storage failed before this run was sealed; the tail past the journaled prefix may be torn or missing\n")
		} else if m.Salvaged {
			fmt.Printf("  note: salvaged run — the ingest daemon recovered this trace from its journal after a crash; the samples are the journaled prefix\n")
		}
	}
	if rep := perf.HangReport(dir); rep != "" {
		fmt.Printf("  WARNING: hang report salvaged with this trace; the samples are the gap-free prefix of a run that did not finish\n")
		for _, line := range strings.Split(strings.TrimRight(rep, "\n"), "\n") {
			fmt.Printf("  | %s\n", line)
		}
	}

	if summary {
		sites := perf.RegionProfileBySite(samples,
			int32(collector.EventFork), int32(collector.EventJoin))
		perf.WriteRegionSiteTable(os.Stdout, sites, nil)
		return nil
	}

	for i, s := range samples {
		ev := "-"
		if s.Event >= 0 {
			ev = collector.Event(s.Event).String()
		}
		st := "-"
		if s.State >= 0 {
			st = collector.State(s.State).String()
		}
		fmt.Printf("  [%6d] t=%-14v thr=%-3d %-28s %-18s region=%-6d",
			i, time.Duration(s.Time), s.Thread, ev, st, s.Region)
		if s.StackID != perf.NoStack {
			fmt.Printf(" stack=%d(%d frames)", s.StackID, len(buf.Stack(s.StackID)))
		}
		fmt.Println()
	}
	return nil
}
