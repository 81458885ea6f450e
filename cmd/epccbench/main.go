// Command epccbench regenerates Figure 4: the percentage increase in
// EPCC directive overheads when the OpenMP collector API is enabled,
// for a sweep of thread counts. With -sched it additionally runs the
// schedule microbenchmarks.
//
// Usage:
//
//	epccbench [-threads 4,8,16,32] [-inner 128] [-outer 5] [-delay 64] [-sched]
package main

import (
	"flag"
	"fmt"
	"os"

	"goomp/internal/epcc"
	"goomp/internal/experiments"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

func main() {
	p := experiments.Figure4Params{ToolOptions: tool.FullMeasurement()}
	threadsFlag := flag.String("threads", "4,8,16,32", "comma-separated thread counts")
	flag.IntVar(&p.InnerReps, "inner", 128, "constructs per timing (EPCC innerreps)")
	flag.IntVar(&p.OuterReps, "outer", 5, "timings per directive (EPCC outer reps)")
	flag.IntVar(&p.DelayLength, "delay", 64, "delay-loop length inside each construct")
	sched := flag.Bool("sched", false, "also run the schedule benchmarks")
	array := flag.Bool("array", false, "also run the data-clause (arraybench) benchmarks")
	flag.StringVar(&p.ToolOptions.ObsAddr, "obs", os.Getenv("GOMP_OBS_ADDR"), "serve the live observability plane on this host:port during the ORA-on measurements; defaults to $GOMP_OBS_ADDR, empty disables")
	flag.Parse()

	var err error
	if p.ThreadCounts, err = experiments.ParseThreads(*threadsFlag); err != nil {
		fmt.Fprintln(os.Stderr, "epccbench:", err)
		os.Exit(1)
	}
	if p.ToolOptions.ObsAddr != "" {
		fmt.Printf("observability plane on %s during ORA-on runs\n", p.ToolOptions.ObsAddr)
	}

	fmt.Printf("Figure 4: EPCC directive overhead increase with ORA enabled\n")
	fmt.Printf("(inner=%d outer=%d delay=%d)\n\n", p.InnerReps, p.OuterReps, p.DelayLength)
	rows, err := experiments.Figure4(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epccbench:", err)
		os.Exit(1)
	}
	experiments.WriteFigure4(os.Stdout, rows)

	// perThreads prints one section per thread count, each measured on
	// a fresh suite.
	perThreads := func(bench string, measure func(s *epcc.Suite)) {
		for _, t := range p.ThreadCounts {
			rt := omp.New(omp.Config{NumThreads: t})
			fmt.Printf("--- %s, %d threads ---\n", bench, t)
			measure(p.Suite(rt))
			rt.Close()
			fmt.Println()
		}
	}
	if *array {
		perThreads("arraybench", func(s *epcc.Suite) {
			fmt.Printf("%-14s %8s %14s %14s\n", "clause", "size", "mean", "per-region")
			for _, r := range s.MeasureArrays() {
				fmt.Printf("%-14s %8d %14v %14v\n", r.Clause, r.Size, r.Time.Mean, r.PerRegion)
			}
		})
	}
	if *sched {
		perThreads("schedbench", func(s *epcc.Suite) {
			fmt.Printf("%-10s %6s %14s %14s\n", "schedule", "chunk", "mean", "per-iter")
			for _, r := range s.MeasureSchedules(64) {
				fmt.Printf("%-10s %6d %14v %14v\n", r.Schedule, r.Chunk, r.Time.Mean, r.PerIteration)
			}
		})
	}
}
