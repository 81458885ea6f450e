// Command ompprof is the prototype collector tool as a CLI: it runs a
// workload on the goomp OpenMP runtime with the collector API enabled
// — discovering the runtime through the simulated dynamic linker, as
// the LD_PRELOAD tool of the paper does — and prints the profile: per
// event counts, per-region timings, user-model join sites, and an
// asynchronously sampled thread-state histogram.
//
// Usage:
//
//	ompprof [-workload pi|EP|CG|MG|FT|BT|SP|LU|LU-HP] [-class S|W|A|B]
//	        [-threads 4] [-sample 1ms] [-trace DIR] [-obs HOST:PORT]
//	        [-stream DIR] [-ingest HOST:PORT] [-overhead-ceiling 2%]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"goomp/internal/collector"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

func main() {
	// The environment is the OpenMP user's interface and supplies the
	// flags' defaults; an explicit flag wins. Both go through the
	// library's parsers, so a knob means here what it means to any other
	// embedder, and a malformed value fails the invocation naming the
	// variable instead of running with a silent default.
	cfg, err := omp.ConfigFromEnv(omp.Config{NumThreads: 4}, lookupEnv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ompprof:", err)
		os.Exit(2)
	}
	opts, err := tool.OptionsFromEnv(tool.FullMeasurement(), lookupEnv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ompprof:", err)
		os.Exit(2)
	}

	workload := flag.String("workload", "pi", "workload: pi, or an NPB benchmark name")
	classFlag := flag.String("class", "S", "problem class for NPB workloads")
	flag.IntVar(&cfg.NumThreads, "threads", cfg.NumThreads, "OpenMP threads; defaults to $OMP_NUM_THREADS, then 4")
	flag.DurationVar(&opts.SamplePeriod, "sample", time.Millisecond, "state sampler period (0 disables)")
	traceDir := flag.String("trace", "", "directory to write per-thread binary traces into (at exit)")
	flag.StringVar(&opts.StreamDir, "stream", "", "directory to stream trace chunks into during the run")
	flag.StringVar(&opts.IngestAddr, "ingest", opts.IngestAddr, "ship trace chunks to a psxd ingestion daemon at this host:port during the run; defaults to $GOMP_INGEST_ADDR, empty disables")
	flag.StringVar(&opts.IngestRun, "run", "", "run ID at the ingestion daemon (default host-pid-start)")
	flag.BoolVar(&opts.IngestDurable, "ingest-durable", opts.IngestDurable, "request durable acks from the ingestion daemon (chunks stay in the resend tail until on its disk); defaults to $GOMP_INGEST_DURABLE")
	flag.DurationVar(&cfg.CallbackBudget, "callback-budget", cfg.CallbackBudget, "per-callback latency budget before the watchdog trips the breaker; defaults to $GOMP_CALLBACK_BUDGET, 0 disarms")
	flag.DurationVar(&opts.DetachTimeout, "detach-timeout", 0, "bounded wait for in-flight callbacks at detach (0 waits forever)")
	flag.StringVar(&opts.ObsAddr, "obs", opts.ObsAddr, "serve the live observability plane (/metrics, /healthz, /state, /profile, /waits) on this host:port while attached; defaults to $GOMP_OBS_ADDR, empty disables")
	flag.DurationVar(&opts.HangTimeout, "hang-timeout", opts.HangTimeout, "hang supervision: after this long with no progress, print a deadlock/no-progress diagnosis, salvage the trace prefix and exit nonzero; defaults to $GOMP_HANG_TIMEOUT, 0 disables")
	flag.StringVar(&opts.HangDir, "hang-dir", opts.HangDir, "without -stream, the directory a hang salvages its report (and an in-memory run's traces) into; with -stream both stay in the -stream directory; defaults to $GOMP_HANG_DIR")
	ceiling := flag.String("overhead-ceiling", "", "arm the adaptive overhead governor: target max profiling overhead as a fraction (\"0.02\") or percentage (\"2%\") of wall time; defaults to $GOMP_OVERHEAD_CEILING, unset disables")
	flag.BoolVar(&opts.TraceCompress, "trace-compress", opts.TraceCompress, "flate-compress the written trace blocks; defaults to $GOMP_TRACE_COMPRESS")
	flag.Parse()
	if *ceiling != "" {
		c, err := tool.ParseOverheadCeiling(*ceiling)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ompprof: -overhead-ceiling:", err)
			os.Exit(2)
		}
		opts.OverheadCeiling = c
	}

	rt := omp.New(cfg)
	defer rt.Close()
	// Export the collector API symbol and discover it the way a real
	// tool does.
	if err := rt.RegisterSymbol(); err != nil {
		fmt.Fprintln(os.Stderr, "ompprof:", err)
		os.Exit(1)
	}
	tl, err := tool.Attach(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ompprof:", err)
		os.Exit(1)
	}
	if url := tl.ObsURL(); url != "" {
		fmt.Printf("observability plane at %s (follow with: ompreport -follow %s)\n", url, url)
	}

	start := time.Now()
	if err := runWorkload(rt, *workload, *classFlag); err != nil {
		fmt.Fprintln(os.Stderr, "ompprof:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	tl.Detach()
	// A stream failure degrades the run, it does not void it: the
	// in-memory report (with its discard accounting) is still printed.
	if err := tl.StreamError(); err != nil {
		fmt.Fprintln(os.Stderr, "ompprof: warning: stream:", err)
	}
	if opts.StreamDir != "" {
		fmt.Printf("trace chunks streamed to %s\n", opts.StreamDir)
	}
	if opts.IngestAddr != "" {
		fmt.Printf("trace chunks shipped to psxd at %s\n", opts.IngestAddr)
	}

	rep := tl.Report()
	fmt.Printf("workload %q on %d threads: %v\n\n", *workload, cfg.NumThreads, elapsed)
	if _, err := rep.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ompprof:", err)
		os.Exit(1)
	}
	if rep.States != nil {
		fmt.Printf("\nstate histogram (sampled every %v):\n", opts.SamplePeriod)
		for id := int32(0); id < int32(cfg.NumThreads); id++ {
			if rep.States.Total(id) == 0 {
				continue
			}
			fmt.Printf("  thread %d:", id)
			for st := collector.State(0); int32(st) < collector.NumStates; st++ {
				if f := rep.States.Fraction(id, int32(st)); f > 0.005 {
					fmt.Printf(" %s=%.0f%%", st, 100*f)
				}
			}
			fmt.Println()
		}
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ompprof:", err)
			os.Exit(1)
		}
		var files []*os.File
		err := tl.WriteTraces(func(thread int32) (io.Writer, error) {
			f, err := os.Create(filepath.Join(*traceDir, fmt.Sprintf("trace.%d.psxt", thread)))
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			return f, nil
		})
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ompprof:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntraces written to %s\n", *traceDir)
	}
}

// lookupEnv is os.LookupEnv with an empty value meaning unset, so
// `GOMP_OBS_ADDR= ompprof ...` turns a knob off instead of tripping the
// typed parsers.
func lookupEnv(name string) (string, bool) {
	v := os.Getenv(name)
	return v, v != ""
}

// runWorkload executes the selected workload on rt.
func runWorkload(rt *omp.RT, name, classFlag string) error {
	if name == "pi" {
		computePi(rt, 2_000_000)
		return nil
	}
	b, err := npb.ByName(name)
	if err != nil {
		return err
	}
	class, err := npb.ParseClass(classFlag)
	if err != nil {
		return err
	}
	res := b.Run(rt, class)
	fmt.Printf("%v\n", res)
	return nil
}

// computePi estimates π by the midpoint rule with a parallel-for
// reduction — the canonical OpenMP first program.
func computePi(rt *omp.RT, steps int) {
	width := 1.0 / float64(steps)
	var pi float64
	rt.Parallel(func(tc *omp.ThreadCtx) {
		local := 0.0
		tc.ForNoWait(steps, func(i int) {
			x := (float64(i) + 0.5) * width
			local += 4.0 / (1.0 + x*x)
		})
		tc.ReduceFloat64(&pi, local*width)
	})
	fmt.Printf("pi ≈ %.9f\n", pi)
}
