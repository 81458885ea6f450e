// Command npbbench regenerates Figure 5 (profiling overheads for the
// NPB3.2-OMP benchmarks at 1/2/4/8 threads) and Table I (parallel
// regions and region calls per benchmark), printing measured values
// beside the paper's.
//
// Usage:
//
//	npbbench [-class S|W|A|B] [-threads 1,2,4,8] [-reps 3] [-bench BT,EP,...] [-tables]
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
	p := experiments.Figure5Params{ToolOptions: tool.FullMeasurement()}
	classFlag := flag.String("class", "W", "problem class: S, W, A or B")
	threadsFlag := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	flag.IntVar(&p.Reps, "reps", 3, "timings per configuration (minimum taken)")
	benchFlag := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	csvOut := flag.Bool("csv", false, "emit the figure rows as CSV and exit")
	tablesOnly := flag.Bool("tables", false, "print Table I only (skip overhead timing)")
	flag.StringVar(&p.ToolOptions.ObsAddr, "obs", os.Getenv("GOMP_OBS_ADDR"), "serve the live observability plane on this host:port during the profiled runs; defaults to $GOMP_OBS_ADDR, empty disables")
	flag.Parse()

	var err error
	if p.Class, err = npb.ParseClass(*classFlag); err != nil {
		fmt.Fprintln(os.Stderr, "npbbench:", err)
		os.Exit(1)
	}
	if *tablesOnly {
		experiments.WriteTableI(os.Stdout, experiments.TableI(p.Class, 4))
		return
	}
	if p.ThreadCounts, err = experiments.ParseThreads(*threadsFlag); err != nil {
		fmt.Fprintln(os.Stderr, "npbbench:", err)
		os.Exit(1)
	}
	p.Benchmarks = experiments.ParseBenchmarks(*benchFlag)
	if p.ToolOptions.ObsAddr != "" {
		fmt.Printf("observability plane on %s during profiled runs\n", p.ToolOptions.ObsAddr)
	}
	rows, err := experiments.Figure5(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npbbench:", err)
		os.Exit(1)
	}
	if err := experiments.WriteFigure(os.Stdout, 5, p.Class, rows, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *csvOut {
		return
	}

	fmt.Println()
	t1 := experiments.TableI(p.Class, 4)
	experiments.WriteTableI(os.Stdout, t1)
	fmt.Println()
	experiments.WriteCallsChart(os.Stdout, "Table I (bars: region calls)", t1)
}
