// Command mzbench regenerates Figure 6 (profiling overheads for the
// multi-zone hybrid benchmarks across the 1×8, 2×4, 4×2 and 8×1
// process×thread decompositions) and Table II (per-process region
// calls), printing measured values beside the paper's.
//
// Usage:
//
//	mzbench [-class S|W|A|B] [-reps 3] [-bench BT-MZ,...] [-tables]
package main

import (
	"flag"
	"fmt"
	"os"

	"goomp/internal/experiments"
	"goomp/internal/npb"
	"goomp/internal/tool"
)

func main() {
	// GOMP_HANG_TIMEOUT goes through the tool's own parser, so it means
	// here what it means to ompprof. Only that value is taken: every
	// rank attaches its own tool, and one obs or ingest address cannot
	// serve them all.
	env, err := tool.OptionsFromEnv(tool.Options{}, func(name string) (string, bool) {
		v := os.Getenv(name)
		return v, v != ""
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mzbench:", err)
		os.Exit(2)
	}
	p := experiments.Figure6Params{ToolOptions: tool.FullMeasurement()}
	classFlag := flag.String("class", "W", "problem class: S, W, A or B")
	flag.IntVar(&p.Reps, "reps", 3, "timings per configuration (minimum taken)")
	benchFlag := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	csvOut := flag.Bool("csv", false, "emit the figure rows as CSV and exit")
	tablesOnly := flag.Bool("tables", false, "print Table II only (skip overhead timing)")
	flag.DurationVar(&p.ToolOptions.HangTimeout, "hang-timeout", env.HangTimeout, "hang supervision for the hybrid runs: diagnose and abort after this long with no progress; defaults to $GOMP_HANG_TIMEOUT, 0 disables")
	flag.Parse()

	if p.Class, err = npb.ParseClass(*classFlag); err != nil {
		fmt.Fprintln(os.Stderr, "mzbench:", err)
		os.Exit(1)
	}
	if *tablesOnly {
		experiments.WriteTableII(os.Stdout, experiments.TableII(p.Class))
		return
	}
	p.Benchmarks = experiments.ParseBenchmarks(*benchFlag)
	rows, err := experiments.Figure6(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mzbench:", err)
		os.Exit(1)
	}
	if err := experiments.WriteFigure(os.Stdout, 6, p.Class, rows, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *csvOut {
		return
	}

	fmt.Println()
	experiments.WriteTableII(os.Stdout, experiments.TableII(p.Class))
}
