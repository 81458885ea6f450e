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
	"strings"

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
	classFlag := flag.String("class", "W", "problem class: S, W, A or B")
	reps := flag.Int("reps", 3, "timings per configuration (minimum taken)")
	benchFlag := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	csvOut := flag.Bool("csv", false, "emit the figure rows as CSV and exit")
	tablesOnly := flag.Bool("tables", false, "print Table II only (skip overhead timing)")
	hangTimeout := flag.Duration("hang-timeout", env.HangTimeout, "hang supervision for the hybrid runs: diagnose and abort after this long with no progress; defaults to $GOMP_HANG_TIMEOUT, 0 disables")
	flag.Parse()

	class := npb.Class((*classFlag)[0])
	if !class.Valid() {
		fmt.Fprintf(os.Stderr, "mzbench: bad class %q\n", *classFlag)
		os.Exit(1)
	}

	if *tablesOnly {
		experiments.WriteTableII(os.Stdout, experiments.TableII(class))
		return
	}

	var names []string
	if *benchFlag != "" {
		for _, n := range strings.Split(*benchFlag, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	topts := tool.FullMeasurement()
	topts.HangTimeout = *hangTimeout
	rows, err := experiments.Figure6(experiments.Figure6Params{
		Class:       class,
		Reps:        *reps,
		Benchmarks:  names,
		ToolOptions: topts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mzbench:", err)
		os.Exit(1)
	}
	if *csvOut {
		if err := experiments.WriteCSV(os.Stdout, rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	experiments.WriteOverheadRows(os.Stdout,
		fmt.Sprintf("Figure 6: NPB3.2-MZ-MPI profiling overheads (class %s)", class), rows)
	fmt.Println()
	experiments.WriteBarChart(os.Stdout, "Figure 6 (bars: overhead% by procs x threads)", rows)
	fmt.Printf("\npaper headline: %s incurs the highest overhead; measured worst: %s\n",
		experiments.PaperFigure6Worst, experiments.Worst(rows))

	fmt.Println()
	experiments.WriteTableII(os.Stdout, experiments.TableII(class))
}
