// Command ompreport is the analyzer: offline, it reads the binary
// per-thread traces a collector tool wrote (ompprof -trace DIR) and
// reconstructs per-thread activity timelines, per-region timing and a
// barrier-imbalance metric — the after-the-run reconstruction step of
// the paper's measurement pipeline. With -follow it instead polls a
// live observability plane (ompprof -obs / GOMP_OBS_ADDR) and renders
// a refreshing report while the program still runs. With -samples it
// prints the traces themselves instead of the report: each file's
// header (samples, distinct stacks, drops) and one line per sample —
// time, thread, event, state, region and stack — since symbol
// resolution of stack PCs is only meaningful inside the process that
// produced them.
//
// Each trace argument may be a single .psxt file, a directory of
// per-thread trace files (a StreamDir, an ompprof -trace dir, or one
// psxd run directory), or a psxd data root holding per-run
// subdirectories.
//
// Usage:
//
//	ompreport [-samples] trace.0.psxt [trace.1.psxt ...]
//	ompreport [-samples] STREAM_DIR | PSXD_DIR | PSXD_DIR/RUN
//	ompreport -follow http://127.0.0.1:9464 [-interval 1s] [-polls N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"goomp/internal/analysis"
	"goomp/internal/collector"
	"goomp/internal/ingest"
	"goomp/internal/perf"
)

func main() {
	follow := flag.String("follow", "", "base URL of a live observability plane to poll instead of reading trace files")
	interval := flag.Duration("interval", time.Second, "poll period with -follow")
	polls := flag.Int("polls", 0, "with -follow, stop after this many polls (0 = until the plane goes away)")
	dump := flag.Bool("samples", false, "print each trace file's samples instead of the report")
	flag.Parse()
	if *follow != "" {
		if err := followPlane(*follow, *interval, *polls); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ompreport [-samples] trace.psxt|DIR ... | ompreport -follow URL")
		os.Exit(2)
	}
	var paths []string
	for _, arg := range flag.Args() {
		expanded, err := perf.FindTraceFiles(arg)
		if err != nil {
			fail(err)
		}
		paths = append(paths, expanded...)
	}
	var hangReports []string
	seenDirs := map[string]bool{}
	salvagedDirs := map[string]bool{}
	quarantinedDirs := map[string]bool{}
	manifests := map[string]*ingest.Manifest{}
	for _, path := range paths {
		// Read what sits beside the traces once per directory: a psxd
		// run directory's manifest (the salvage/quarantine markers and
		// the client's loss accounting from the BYE), and the hang
		// supervisor's report when the run was salvaged from a hang.
		dir := filepath.Dir(path)
		fresh := !seenDirs[dir]
		var hang string
		if fresh {
			seenDirs[dir] = true
			if m, err := ingest.ReadManifest(dir); err == nil {
				manifests[dir] = m
				if m.Quarantined {
					quarantinedDirs[dir] = true
				} else if m.Salvaged {
					salvagedDirs[dir] = true
				}
			}
			if hang = perf.HangReport(dir); hang != "" {
				hangReports = append(hangReports, hang)
			}
		}
		if *dump {
			f := open(path)
			tr, err := perf.ReadTraceStream(f)
			f.Close()
			salvaged(path, err, tr.Len())
			dumpSamples(path, tr, fresh && quarantinedDirs[dir], fresh && salvagedDirs[dir], hang)
		}
	}
	if *dump {
		return
	}
	samples, dropped, truncated := readSamples(paths)
	fmt.Printf("%d samples from %d trace files", len(samples), len(paths))
	if dropped > 0 {
		fmt.Printf(" (%d samples dropped at capture)", dropped)
	}
	if truncated > 0 {
		fmt.Printf(" [%d truncated file(s): partial data]", truncated)
	}
	if len(salvagedDirs) > 0 {
		fmt.Printf(" [%d salvaged run(s): recovered from the ingest journal after a daemon crash]", len(salvagedDirs))
	}
	if len(quarantinedDirs) > 0 {
		fmt.Printf(" [%d quarantined run(s): ingest storage failed before the seal; tails may be torn]", len(quarantinedDirs))
	}
	fmt.Printf("\n\n")
	for _, rep := range hangReports {
		fmt.Println("WARNING: these traces were salvaged from a hung run; the data is the gap-free prefix of a run that did not finish")
		printHangReport(rep)
		fmt.Println()
	}

	// Degradation and loss, before anything else: a reader must learn
	// that the trace is not full fidelity before trusting the numbers
	// reconstructed from it.
	printDegradationSummary(samples, dropped, manifests)

	// Per-region timing from the master's fork/join markers, grouped
	// by static region site (one row per parallel region of the source
	// program).
	sites := perf.RegionProfileBySite(samples,
		int32(collector.EventFork), int32(collector.EventJoin))
	if len(sites) > 0 {
		fmt.Println("parallel regions (by site):")
		perf.WriteRegionSiteTable(os.Stdout, sites, nil)
		fmt.Println()
	}

	// Work-stealing attribution: where the scheduler rebalanced and
	// which threads fed which. Only printed when the trace contains
	// steal events (steal schedule, dynamic fast path, or task steals).
	steals := perf.StealProfileBySite(samples,
		int32(collector.EventChunkSteal), int32(collector.EventTaskSteal))
	if len(steals) > 0 {
		fmt.Println("work stealing (by site):")
		perf.WriteStealTable(os.Stdout, steals, nil)
		fmt.Println()
		fmt.Println("steal migration edges:")
		perf.WriteStealEdges(os.Stdout, perf.StealEdges(samples,
			int32(collector.EventChunkSteal), int32(collector.EventTaskSteal)))
		fmt.Println()
		fmt.Println("per-thread steal traffic:")
		analysis.WriteStealReport(os.Stdout, analysis.StealActivities(samples))
		fmt.Println()
	}

	// Per-thread activity reconstruction.
	tls := analysis.Timelines(samples)
	if len(tls) > 0 {
		fmt.Println("per-thread activity:")
		analysis.Report(os.Stdout, tls)
		if imb := analysis.BarrierImbalance(tls); imb > 0 {
			fmt.Printf("\nbarrier imbalance (max/mean): %.2f\n", imb)
		}
	}
}

// dumpSamples prints one trace file as it holds its samples: a header,
// then one line per sample. The run context of the file's directory —
// its salvage or quarantine marker and its hang report, which the
// caller passes only for the first file read from that directory —
// follows the header.
func dumpSamples(path string, tr *perf.Trace, quarantined, salvaged bool, hang string) {
	samples := tr.Samples()
	fmt.Printf("%s: %d samples, %d distinct stacks, %d dropped\n",
		path, len(samples), tr.NumStacks(), tr.Dropped())
	if quarantined {
		fmt.Printf("  WARNING: quarantined run — the ingest daemon's storage failed before this run was sealed; the tail past the journaled prefix may be torn or missing\n")
	} else if salvaged {
		fmt.Printf("  note: salvaged run — the ingest daemon recovered these traces from its journal after a crash; the samples are the journaled prefix\n")
	}
	if hang != "" {
		fmt.Printf("  WARNING: hang report salvaged with these traces; the samples are the gap-free prefix of a run that did not finish\n")
		printHangReport(hang)
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
			fmt.Printf(" stack=%d(%d frames)", s.StackID, len(tr.Stack(s.StackID)))
		}
		fmt.Println()
	}
}

// printHangReport prints a hang report's lines behind a bar.
func printHangReport(rep string) {
	for _, line := range strings.Split(strings.TrimRight(rep, "\n"), "\n") {
		fmt.Printf("  | %s\n", line)
	}
}

// readSamples reads the samples of every file, in order, into one
// slice, and sums the drops their writers counted. Each file is read
// block by block, its samples copied once, into a slice made by the
// files' summed skim counts, which their bytes bound whatever their
// headers declare. Streamed traces are chunk-block sequences; a torn
// file still yields its gap-free prefix, which is worth analyzing, and
// counts as truncated. A file that cannot be opened or read ends the
// program.
func readSamples(paths []string) (samples []perf.Sample, dropped uint64, truncated int) {
	readers := make([]*perf.TraceReader, len(paths))
	n := 0
	for i, path := range paths {
		f := open(path)
		defer f.Close()
		readers[i] = perf.NewTraceReader(f)
		n += readers[i].Bound()
	}
	samples = make([]perf.Sample, 0, n)
	for i, r := range readers {
		at := len(samples)
		for r.Next() {
			samples = append(samples, r.Samples()...)
			dropped += r.Dropped()
		}
		if salvaged(paths[i], r.Err(), len(samples)-at) {
			truncated++
		}
	}
	return samples, dropped, truncated
}

// salvaged reports whether the read of the file at path stopped at a
// malformed block, warning that the intact prefix, its first n samples,
// is used. Any other error ends the program.
func salvaged(path string, err error, n int) bool {
	if err != nil && !errors.Is(err, perf.ErrBadTrace) {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompreport: warning: %s: %v; using the intact prefix (%d samples)\n", path, err, n)
	}
	return err != nil
}

// open opens the file at path, or ends the program.
func open(path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	return f
}

// fail ends the program over err.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "ompreport:", err)
	os.Exit(1)
}

// printDegradationSummary renders the degradation & loss summary: what
// the measurement shed to stay under its overhead ceiling (the
// governor's step history, decoded from the trace), what was dropped
// at capture, and — for psxd run directories, from the manifest's
// client accounting — what was dropped, spilled and replayed on the
// way to storage. Silent when the run was full fidelity and lossless.
func printDegradationSummary(samples []perf.Sample, captureDropped uint64, manifests map[string]*ingest.Manifest) {
	steps := analysis.GovernorSteps(samples)
	var clientDropped, clientDroppedSamples, spilled, replayed uint64
	// What psxd stamped when it closed its books against the client's
	// BYE: absent when they closed.
	var unstored ingest.Unstored
	for _, m := range manifests {
		clientDropped += m.ClientDropped
		clientDroppedSamples += m.ClientDroppedSamples
		spilled += m.ClientSpilled
		replayed += m.ClientReplayed
		if u := m.Unstored; u != nil {
			unstored.Storage += u.Storage
			unstored.Unaccounted += u.Unaccounted
		}
	}
	if len(steps) == 0 && captureDropped == 0 && clientDropped == 0 &&
		spilled == 0 && unstored == (ingest.Unstored{}) {
		return
	}
	fmt.Println("DEGRADATION & LOSS SUMMARY")
	if captureDropped > 0 {
		fmt.Printf("  capture: %d samples dropped at record time (trace buffers full)\n", captureDropped)
	}
	if clientDropped > 0 {
		fmt.Printf("  shipping: %d chunks (%d samples) lost before reaching the ingest daemon\n",
			clientDropped, clientDroppedSamples)
	}
	if spilled > 0 {
		fmt.Printf("  spill: %d chunks took the on-disk store-and-forward detour, %d replayed and delivered\n",
			spilled, replayed)
		if spilled > replayed {
			fmt.Printf("         %d spilled chunks were not delivered by run end\n", spilled-replayed)
		}
	}
	if unstored != (ingest.Unstored{}) {
		fmt.Printf("  ingest: %v\n", unstored)
	}
	if len(steps) > 0 {
		final := analysis.FinalGovernorLevel(steps)
		fmt.Printf("  governor: %d ladder transitions, final level %s\n", len(steps), final)
		analysis.WriteGovernorReport(os.Stdout, steps)
		if final > 0 {
			fmt.Printf("  NOTE: the run ended degraded (%s); activity below is what survived the shedding\n", final)
		}
	}
	fmt.Println()
}
