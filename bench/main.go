// Command bench is the repository's pipeline benchmark: one process
// that starts psxd in-process and drives a workload from the recording
// thread to the report through the packages' public functions, checks
// the outputs, and prints the metrics BENCHMARK.json names as one JSON
// object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names a metric as BENCHMARK.json does. The value reported
// is the median of the run's samples of that name.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the pipeline sees; every workload reports
// every one, with its own operation behind the same name (README.md).
//
// None but setup_s is a plain wall-clock figure: the sandbox's speed
// wanders by tens of percent from one ten-second window to the next, so
// the gated metrics are a ratio of operations timed seconds apart and
// two counts. The wall-clock figures are per-layer metrics, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slowdown_x", "ratio"},
	{"bytes_per_event", "B"},
	{"alloc_bytes_per_event", "B"},
}

// perLayer is reported by the traced run.
var perLayer = []metricDef{
	{"omp.forkjoin_ns", "ns"}, {"omp.barrier_ns", "ns"}, {"omp.for_dynamic_ns_per_iter", "ns"},
	{"omp.app_off_s", "s"},
	{"collector.dispatch_unreg_ns", "ns"}, {"collector.dispatch_reg_ns", "ns"},
	{"collector.events_dispatched", "count"},
	{"perf.record_ns", "ns"}, {"perf.record_stack_ns", "ns"},
	{"perf.encode_v1_ns_per_event", "ns"}, {"perf.encode_v2_ns_per_event", "ns"}, {"perf.encode_flate_ns_per_event", "ns"},
	{"perf.v1_bytes_per_event", "B"}, {"perf.v2_bytes_per_event", "B"}, {"perf.flate_bytes_per_event", "B"},
	{"perf.decode_v1_ns_per_event", "ns"}, {"perf.decode_v2_ns_per_event", "ns"},
	{"perf.count_samples_ns_per_event", "ns"},
	{"perf.region_profile_ns_per_event", "ns"},
	{"analysis.timelines_ns_per_event", "ns"}, {"analysis.report_ns_per_event", "ns"},
	{"tool.event_full_ns", "ns"}, {"tool.event_full_stack_ns", "ns"},
	{"tool.attach_ms", "ms"}, {"tool.segment_s", "s"}, {"tool.detach_ms", "ms"}, {"tool.seal_wait_ms", "ms"},
	{"tool.slowdown_mem_x", "ratio"},
	{"tool.chunks_produced", "count"}, {"tool.chunks_shipped", "count"}, {"tool.chunks_dropped", "count"},
	{"tool.chunks_spilled", "count"}, {"tool.samples_dropped", "count"},
	{"tool.durable_shed_pct", "%"},
	{"ingest.frame_encode_ns", "ns"}, {"ingest.frame_decode_ns", "ns"},
	{"ingest.nondurable_chunks_per_s", "chunks/s"}, {"ingest.fsync_never_chunks_per_s", "chunks/s"},
	{"ingest.fsync_every1_chunks_per_s", "chunks/s"},
	{"ingest.ack_p50_ms", "ms"}, {"ingest.ack_p99_ms", "ms"}, {"ingest.gen_late_p99_ms", "ms"},
	{"ingest.acks_overloaded", "count"}, {"ingest.acks_storage", "count"},
	{"ingest.recover_ms", "ms"},
	{"bench.op_ms", "ms"}, {"bench.events_per_s", "events/s"},
	{"bench.op_traced_ms", "ms"}, {"bench.trace_overhead_pct", "%"}, {"bench.peak_rss_mb", "MB"},
}

var workloadNames = []string{"epcc-fine", "npb-coarse", "ingest-durable", "report-read"}

// sizes fixes every unit of work by count; --seconds only decides how
// many units a run measures.
type sizes struct {
	setupReps    int     // set-ups per run at least; setup_s is their median
	minOps       int     // pairs / passes measured whatever the budget
	epccRounds   int     // shuffles of all directives per epcc-fine segment
	npbPasses    int     // shuffles of all kernels per npb-coarse segment
	npbClass     byte    //
	openRate     float64 // ingest-durable open loop, chunks/s in total
	runChunks    int     // ingest-durable closed loop, chunks per run in total
	blockPool    int     // distinct pre-encoded blocks replayed
	reportEvents int     // report-read trace size
	probe        probeSizes
}

type probeSizes struct {
	ops, slowOps int     // operations per timing: cheap ones, and ones that allocate
	blocks       int     // trace blocks per encode / decode pass
	aggEvents    int     // samples per aggregation pass
	chunks       int     // chunks per closed-loop or recovery probe
	rounds       int     // epcc rounds per segment of the pipeline probe
	pairs        int     // pairs of the pipeline probe
	openSecs     float64 // length of the open-loop probe
}

var fullSizes = sizes{
	setupReps: 3, minOps: 4,
	epccRounds: 200, npbPasses: 1, npbClass: 'W',
	openRate: 2000, runChunks: 10000, blockPool: 256,
	reportEvents: 300_000,
	probe: probeSizes{
		ops: 1_000_000, slowOps: 100_000, blocks: 512, aggEvents: 512 << 10,
		chunks: 8000, rounds: 30, pairs: 3, openSecs: 2,
	},
}

var quickSizes = sizes{
	setupReps: 2, minOps: 4,
	epccRounds: 4, npbPasses: 1, npbClass: 'S',
	openRate: 2000, runChunks: 800, blockPool: 32,
	reportEvents: 40_000,
	probe: probeSizes{
		ops: 20_000, slowOps: 4_000, blocks: 16, aggEvents: 16 << 10,
		chunks: 400, rounds: 2, pairs: 1, openSecs: 0.2,
	},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	width    int    // GOMAXPROCS and OpenMP team size
	root     string // this process's scratch directory
	outDir   string // span files and detailed results
	sz       sizes
}

// outcome accumulates one measurement.
type outcome struct {
	rec       *recorder
	attempted int64
	failed    int64
}

type workload interface {
	setup() error
	teardown()
	measure(budget time.Duration, tr *tracer, out *outcome) error
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "epcc-fine":
		return newAppWorkload(cfg, true), nil
	case "npb-coarse":
		return newAppWorkload(cfg, false), nil
	case "ingest-durable":
		return &ingestWorkload{cfg: cfg, fsync: ingestFsync}, nil
	case "report-read":
		return &reportWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Error     string            `json:"error,omitempty"`
}

// detail is the fuller account written beside the span file: every
// series the run recorded, with sample count and quartiles.
type detail struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     hostInfo           `json:"host"`
	Result   result             `json:"result"`
	Series   map[string]summary `json:"series"`
	SpanSelf map[string]float64 `json:"span_self_s,omitempty"`
}

// runWorkload sets the workload up, measures it and reports the
// metrics of the requested kind.
func runWorkload(cfg config) (detail, error) {
	det := detail{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: readHost(cfg.width)}
	w, err := newWorkload(cfg)
	if err != nil {
		return det, err
	}
	out := &outcome{rec: newRecorder()}
	defer w.teardown()
	// Set up several times and report the median: at least setupReps
	// times, and a cheap set-up up to five times as often, while it all
	// fits in a second. The last one stays.
	for i, start := 0, time.Now(); i < cfg.sz.setupReps || (i < 5*cfg.sz.setupReps && time.Since(start) < time.Second); i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return det, fmt.Errorf("set-up: %w", err)
		}
		out.rec.add("setup_s", "s", time.Since(t0).Seconds())
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	defs := endToEnd
	if !cfg.trace {
		err = w.measure(budget, nil, out)
	} else {
		defs = perLayer
		t0 := time.Now()
		if err := runProbes(cfg, out.rec); err != nil {
			return det, fmt.Errorf("probe %w", err)
		}
		// What the probes left of the budget goes to the workload itself,
		// with spans recorded around every other operation.
		tr := newTracer()
		if err = w.measure(max(budget-time.Since(t0), budget/4), tr, out); err == nil {
			traced, untraced := median(out.rec.values("bench.op_traced_ms")), median(out.rec.values("op_ms"))
			out.rec.add("bench.op_ms", "ms", untraced)
			out.rec.add("bench.events_per_s", "events/s", median(out.rec.values("events_per_s")))
			out.rec.add("bench.trace_overhead_pct", "%", 100*(traced/untraced-1))
			out.rec.add("bench.peak_rss_mb", "MB", peakRSSMB())
			det.SpanSelf = tr.selfTimes()
			if err = os.MkdirAll(cfg.outDir, 0o755); err == nil {
				err = tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"))
			}
		}
	}
	det.Series = out.rec.summaries()
	det.Result = result{Correct: err == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if err != nil {
		return det, err
	}
	for _, d := range defs {
		s, ok := det.Series[d.name]
		if !ok || s.N == 0 {
			return det, fmt.Errorf("metric %s was not measured", d.name)
		}
		det.Result.Metrics[d.name] = metric{Value: s.Median, Unit: d.unit}
	}
	if det.Result.Attempted < 1 {
		return det, errors.New("nothing was attempted")
	}
	return det, nil
}

// teamWidth is both GOMAXPROCS and the OpenMP team size: the host's
// width, up to four.
func teamWidth() int { return min(runtime.NumCPU(), 4) }

// scrubEnv removes every OpenMP environment knob, so the runtime under
// test is configured by the harness alone.
func scrubEnv() {
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "OMP_") || strings.HasPrefix(k, "GOMP_") {
			os.Unsetenv(k)
		}
	}
}

func main() {
	name := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed for directive and kernel order, chunk pools and synthetic traces")
	seconds := flag.Float64("seconds", 20, "how long a run measures")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics and write a span file")
	quick := flag.Bool("quick", false, "smoke sizes: the whole suite in a few seconds")
	watchdog := flag.Duration("watchdog", 120*time.Second, "give up on a workload after this long")
	workDir := flag.String("workdir", ".bench_build/work", "where scratch directories are made")
	outDir := flag.String("out", "bench/out", "where span files and detailed results are written")
	repeat := flag.Int("repeat", 0, "run each workload this many times, each with another seed, and print the spreads")
	setOut := flag.String("o", "", "with -repeat: write the result set to this file")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	bounds := flag.String("bounds", "BENCHMARK.json", "with -compare: where the bounds are")
	flag.Parse()

	if *compare {
		os.Exit(compareSets(os.Stdout, flag.Args(), *bounds))
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(os.Stdout, *name, *seed, *seconds, *repeat, *quick, *setOut))
	}

	scrubEnv()
	runtime.GOMAXPROCS(teamWidth())
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, width: teamWidth(), outDir: *outDir, sz: fullSizes}
	if *quick {
		cfg.sz = quickSizes
		cfg.seconds = min(cfg.seconds, 0.5)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}

	var once sync.Once
	exit := func(code int) {
		// A second caller (the watchdog racing a result) waits here for
		// the first one's os.Exit.
		once.Do(func() {
			os.RemoveAll(cfg.root)
			os.Exit(code)
		})
	}
	fail := func(workload string, err error) {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		printResult(os.Stdout, result{Metrics: map[string]metric{}, Error: err.Error()})
		exit(1)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fail(*name, err)
	}
	var err error
	if cfg.root, err = os.MkdirTemp(*workDir, "run-"); err != nil {
		fail(*name, err)
	}
	defer func() {
		if r := recover(); r != nil {
			fail(cfg.workload, fmt.Errorf("panic: %v\n%s", r, debug.Stack()))
		}
	}()
	for _, cfg.workload = range names {
		timer := time.AfterFunc(*watchdog, func() {
			fail(cfg.workload, fmt.Errorf("watchdog: no result after %v", *watchdog))
		})
		det, err := runWorkload(cfg)
		timer.Stop()
		writeDetail(os.Stderr, cfg, det)
		if err != nil {
			fail(cfg.workload, err)
		}
		printResult(os.Stdout, det.Result)
	}
	exit(0)
}

func printResult(w io.Writer, r result) {
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

// writeDetail prints the run's series to w and stores them beside the
// span file.
func writeDetail(w io.Writer, cfg config, det detail) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v  %s, %s, kernel %s, nproc=%d GOMAXPROCS=%d team=%d\n",
		det.Workload, det.Seed, det.Seconds, det.Trace, det.Host.GoVersion, det.Host.CPU, det.Host.Kernel,
		det.Host.NumCPU, det.Host.GOMAXPROCS, det.Host.Team)
	names := make([]string, 0, len(det.Series))
	for name := range det.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := det.Series[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-9s n=%-6d q1=%.6g q3=%.6g min=%.6g max=%.6g\n",
			name, s.Median, s.Unit, s.N, s.Q1, s.Q3, s.Min, s.Max)
	}
	kind := "result"
	if det.Trace {
		kind = "layers"
	}
	data, err := json.MarshalIndent(det, "", " ")
	if err == nil {
		if err = os.MkdirAll(cfg.outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(cfg.outDir, kind+"-"+det.Workload+".json"), data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(w, "bench: detailed result not written: %v\n", err)
	}
}
