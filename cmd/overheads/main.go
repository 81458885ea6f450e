// Command overheads regenerates the §V-B decomposition experiment: it
// runs LU-HP (4 threads) and SP-MZ (4 processes × 1 thread) with the
// collector detached, with callbacks only, and with full measurement
// and storage, and reports what share of the total tool overhead the
// measurement/storage phase accounts for — the paper measured 81.22%
// for LU-HP and 99.35% for SP-MZ, concluding that optimization effort
// belongs in the measurement/storage phase of tool development.
//
// With -sync the command instead benchmarks the synchronization core
// through the EPCC suite — barrier and reduction directive overheads
// and the dynamic/guided schedule costs — and, with -json, writes the
// numbers to a machine-readable file (the BENCH_sync.json artifact the
// bench-sync make target produces).
//
// With -sched it runs the irregular schedbench variant instead: a loop
// whose per-iteration work is uniform or zipf-skewed, scheduled
// dynamically and with the work-stealing schedule, comparing the
// critical path (max per-thread work units) each assignment produces
// and counting the steal events (the BENCH_sched.json artifact the
// bench-sched make target produces).
//
// Usage:
//
//	overheads [-class S|W|A|B] [-reps 3] [-probe N]
//	overheads -sync [-threads 8] [-reps 10] [-json BENCH_sync.json]
//	overheads -sched [-threads 8] [-reps 5] [-json BENCH_sched.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"goomp/internal/collector"
	"goomp/internal/epcc"
	"goomp/internal/experiments"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

// probeEventCost measures the bare per-event record cost of the
// measurement hot path — one dispatched event through the descriptor-
// pinned single-writer buffer — by dispatching n events on one bound
// descriptor and timing them.
func probeEventCost(n int) (time.Duration, error) {
	col := collector.New()
	tl, err := tool.AttachCollector(col, tool.Options{Measure: true})
	if err != nil {
		return 0, err
	}
	defer tl.Detach()
	ti := collector.NewThreadInfo(0)
	col.BindThread(ti)
	const resetEvery = 1 << 20 // bound probe memory
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%resetEvery == 0 && i > 0 {
			tl.ResetTraces()
		}
		col.Event(ti, collector.EventFork)
	}
	return time.Since(start) / time.Duration(n), nil
}

// syncPoint is one synchronization-core measurement in the JSON
// artifact; directive overheads fill OverheadNs, schedule points fill
// PerIterationNs.
type syncPoint struct {
	Name           string  `json:"name"`
	OverheadNs     float64 `json:"overhead_ns,omitempty"`
	PerIterationNs float64 `json:"per_iteration_ns,omitempty"`
	MeanNs         float64 `json:"mean_ns"`
	SDNs           float64 `json:"sd_ns"`
}

type syncReport struct {
	Threads    int         `json:"threads"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Results    []syncPoint `json:"results"`
}

// runSyncBench measures the barrier, reduction and dynamic/guided
// scheduling costs of the synchronization core through the EPCC suite
// and optionally writes them as JSON.
func runSyncBench(threads, reps int, jsonPath string) error {
	rt := omp.New(omp.Config{NumThreads: threads})
	defer rt.Close()
	s := epcc.NewSuite(rt)
	s.OuterReps = reps

	rep := syncReport{Threads: threads, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, name := range []string{"BARRIER", "REDUCTION"} {
		d, err := epcc.Lookup(name)
		if err != nil {
			return err
		}
		r := s.Measure(d)
		rep.Results = append(rep.Results, syncPoint{
			Name:       name,
			OverheadNs: float64(r.Overhead.Nanoseconds()),
			MeanNs:     float64(r.Time.Mean.Nanoseconds()),
			SDNs:       float64(r.Time.SD.Nanoseconds()),
		})
		fmt.Printf("%-12s overhead %v/rep (mean %v, sd %v)\n",
			name, r.Overhead, r.Time.Mean, r.Time.SD)
	}
	const itersPerThread = 128
	for _, sc := range []struct {
		sched omp.Schedule
		chunk int
	}{{omp.ScheduleDynamic, 4}, {omp.ScheduleGuided, 4}} {
		r := s.MeasureSchedule(sc.sched, sc.chunk, itersPerThread)
		name := fmt.Sprintf("%s,%d", sc.sched, sc.chunk)
		rep.Results = append(rep.Results, syncPoint{
			Name:           name,
			PerIterationNs: float64(r.PerIteration.Nanoseconds()),
			MeanNs:         float64(r.Time.Mean.Nanoseconds()),
			SDNs:           float64(r.Time.SD.Nanoseconds()),
		})
		fmt.Printf("%-12s %v/iter (mean %v, sd %v)\n",
			name, r.PerIteration, r.Time.Mean, r.Time.SD)
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// schedPoint is one irregular-schedbench measurement in the
// BENCH_sched.json artifact. CriticalPathUnits is the mean over runs
// of the maximum work units any one thread executed under the
// schedule's actual chunk-to-thread assignment — the machine-
// independent makespan of the assignment on dedicated per-thread
// cores, measured under the virtual-time gate (see
// epcc.MeasureScheduleWork). That is the headline metric; the wall
// means record real scheduling+gate overhead, not makespan.
type schedPoint struct {
	Workload          string  `json:"workload"` // uniform | zipf
	Schedule          string  `json:"schedule"`
	Chunk             int     `json:"chunk"`
	CriticalPathUnits float64 `json:"critical_path_units"`
	TotalUnits        int64   `json:"total_units"`
	BalancedUnits     float64 `json:"balanced_units"` // TotalUnits/Threads: the ideal
	WallMeanNs        float64 `json:"wall_mean_ns"`
	WallSDNs          float64 `json:"wall_sd_ns"`
	ChunkSteals       uint64  `json:"chunk_steals"`
	TaskSteals        uint64  `json:"task_steals"`
}

type schedReport struct {
	Threads    int          `json:"threads"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Iterations int          `json:"iterations"`
	ZipfS      float64      `json:"zipf_s"`
	ZipfWmax   int          `json:"zipf_wmax"`
	Results    []schedPoint `json:"results"`
	// ZipfSpeedup is the dynamic schedule's zipf critical path over the
	// steal schedule's — how much shorter the work-stealing assignment's
	// makespan is on the skewed workload (target: >= 2 at 8 threads).
	ZipfSpeedup float64 `json:"zipf_speedup_steal_vs_dynamic_critical_path"`
}

// runSchedBench produces the BENCH_sched.json artifact: the irregular
// EPCC schedbench variant comparing dynamic against the work-stealing
// schedule on uniform and zipf-skewed per-iteration work. A
// callbacks-only tool is attached so the collector tallies the steal
// events the run generates.
func runSchedBench(threads, reps int, jsonPath string) error {
	const (
		iters = 1024
		zipfS = 1.25
		wmax  = 1024
		chunk = 1
	)
	rt := omp.New(omp.Config{NumThreads: threads})
	defer rt.Close()
	tl, err := tool.AttachRuntime(rt, tool.CallbacksOnly())
	if err != nil {
		return err
	}
	defer tl.Detach()
	col := rt.Collector()

	s := epcc.NewSuite(rt)
	s.OuterReps = reps

	rep := schedReport{Threads: threads, GoMaxProcs: runtime.GOMAXPROCS(0),
		Iterations: iters, ZipfS: zipfS, ZipfWmax: wmax}
	workloads := []struct {
		name string
		work []int
	}{
		{"uniform", epcc.UniformWork(iters, 8)},
		{"zipf", epcc.ZipfWork(iters, zipfS, wmax)},
	}
	var zipfCP = map[omp.Schedule]float64{}
	for _, wl := range workloads {
		for _, sched := range []omp.Schedule{omp.ScheduleDynamic, omp.ScheduleSteal} {
			cs0 := col.EventCount(collector.EventChunkSteal)
			ts0 := col.EventCount(collector.EventTaskSteal)
			r := s.MeasureScheduleWork(sched, chunk, wl.work)
			pt := schedPoint{
				Workload:          wl.name,
				Schedule:          sched.String(),
				Chunk:             chunk,
				CriticalPathUnits: r.CriticalPathUnits,
				TotalUnits:        r.TotalUnits,
				BalancedUnits:     float64(r.TotalUnits) / float64(threads),
				WallMeanNs:        float64(r.Time.Mean.Nanoseconds()),
				WallSDNs:          float64(r.Time.SD.Nanoseconds()),
				ChunkSteals:       col.EventCount(collector.EventChunkSteal) - cs0,
				TaskSteals:        col.EventCount(collector.EventTaskSteal) - ts0,
			}
			rep.Results = append(rep.Results, pt)
			if wl.name == "zipf" {
				zipfCP[sched] = r.CriticalPathUnits
			}
			fmt.Printf("%-8s %-8s critical path %10.0f units (ideal %8.0f, total %8d)  wall %8v  steals %d\n",
				wl.name, sched, pt.CriticalPathUnits, pt.BalancedUnits,
				pt.TotalUnits, r.Time.Mean, pt.ChunkSteals)
		}
	}
	if cp := zipfCP[omp.ScheduleSteal]; cp > 0 {
		rep.ZipfSpeedup = zipfCP[omp.ScheduleDynamic] / cp
	}
	fmt.Printf("zipf: steal critical path is %.2fx shorter than dynamic's\n", rep.ZipfSpeedup)
	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

func main() {
	classFlag := flag.String("class", "W", "problem class: S, W, A or B")
	reps := flag.Int("reps", 5, "timings per configuration (minimum taken)")
	probe := flag.Int("probe", 0,
		"also measure the bare per-event record cost over N dispatched events")
	syncBench := flag.Bool("sync", false,
		"benchmark the synchronization core (barrier, reduction, schedules) instead")
	schedBench := flag.Bool("sched", false,
		"benchmark the schedules on irregular work (dynamic vs steal, uniform vs zipf) instead")
	threads := flag.Int("threads", 8, "team size for -sync/-sched")
	jsonPath := flag.String("json", "", "with -sync/-sched, write the results to this JSON file")
	flag.Parse()

	if *schedBench {
		if err := runSchedBench(*threads, *reps, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "overheads:", err)
			os.Exit(1)
		}
		return
	}

	if *syncBench {
		if err := runSyncBench(*threads, *reps, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "overheads:", err)
			os.Exit(1)
		}
		return
	}

	if *probe > 0 {
		per, err := probeEventCost(*probe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overheads:", err)
			os.Exit(1)
		}
		fmt.Printf("per-event record cost: %v (over %d events)\n\n", per, *probe)
	}

	class := npb.Class((*classFlag)[0])
	if !class.Valid() {
		fmt.Fprintf(os.Stderr, "overheads: bad class %q\n", *classFlag)
		os.Exit(1)
	}
	rows, err := experiments.Decomposition(class, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overheads:", err)
		os.Exit(1)
	}
	experiments.WriteDecomposition(os.Stdout, rows)
	fmt.Println("\nIf the share is high, overhead reduction effort should focus on")
	fmt.Println("the measurement/storage phases of performance tool development,")
	fmt.Println("not on the callback/communication machinery (§V-B).")
}
