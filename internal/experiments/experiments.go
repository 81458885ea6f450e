// Package experiments regenerates every table and figure of the
// paper's evaluation (§V): the EPCC directive-overhead chart (Figure
// 4), the NPB3.2-OMP profiling overheads (Figure 5), the multi-zone
// hybrid overheads (Figure 6), the region-count tables (Tables I and
// II) and the overhead-decomposition study (§V-B). Every timed
// experiment goes through one timing loop, fastest. The experiment
// commands under cmd/ are thin wrappers over this package, and share
// its flag parsers and renderers.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"goomp/internal/epcc"
	"goomp/internal/mz"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

// Paper reference values, used to print paper-vs-measured rows.

// PaperTableI is Table I: static parallel regions and dynamic region
// calls per NPB3.2-OMP benchmark at class B on the authors' testbed.
var PaperTableI = map[string]struct{ Regions, Calls uint64 }{
	"BT":    {11, 1014},
	"EP":    {3, 3},
	"SP":    {14, 3618},
	"MG":    {10, 1281},
	"FT":    {9, 112},
	"CG":    {15, 2212},
	"LU-HP": {16, 298959},
	"LU":    {9, 518},
}

// PaperTableII is Table II: parallel region calls per process for the
// multi-zone benchmarks under the four process×thread decompositions.
var PaperTableII = map[string]map[string]uint64{
	"BT-MZ": {"1x8": 167616, "2x4": 83808, "4x2": 41904, "8x1": 20952},
	"LU-MZ": {"1x8": 40353, "2x4": 20177, "4x2": 10089, "8x1": 5045},
	"SP-MZ": {"1x8": 436672, "2x4": 218336, "4x2": 109168, "8x1": 54584},
}

// PaperFigure5Worst records Figure 5's headline: LU-HP incurs the
// highest NPB-OMP overhead (≈6% on eight threads).
const PaperFigure5Worst = "LU-HP"

// PaperFigure6Worst records Figure 6's headline: SP-MZ incurs the
// highest hybrid overhead (≈16% at 1×8).
const PaperFigure6Worst = "SP-MZ"

// PaperDecomposition records §V-B: the fraction of tool overhead
// attributable to measurement/storage rather than callbacks and
// communication.
var PaperDecomposition = map[string]float64{
	"LU-HP": 81.22,
	"SP-MZ": 99.35,
}

// OverheadRow is one figure cell: a benchmark (for Figure 4, an EPCC
// directive) at a configuration, with the ORA-off baseline, the ORA-on
// time and the percentage overhead.
type OverheadRow struct {
	Benchmark string
	Config    string // "4" (threads) or "2x4" (procs x threads)
	Off, On   time.Duration
	// Percent is the figures' metric; sub-1% values are reported as
	// zero, following the paper's presentation.
	Percent     float64
	RegionCalls uint64
	Verified    bool
}

// percent is the relative growth from off to on, with sub-1% values
// (measurement noise, the paper's "listed as zero") floored to zero.
func percent(off, on time.Duration) float64 {
	if off <= 0 {
		return 0
	}
	p := 100 * (float64(on) - float64(off)) / float64(off)
	if p < 1 {
		return 0
	}
	return p
}

// timing is one timed run of a workload.
type timing struct {
	Time        time.Duration
	RegionCalls uint64
	Verified    bool
	// Directives is Figure 4's run: every EPCC directive's result,
	// each timed over the suite's own outer repetitions.
	Directives []epcc.Result
}

// workload runs an experiment's program once, with a tool attached
// when opts is non-nil.
type workload func(opts *tool.Options) (timing, error)

// fastest is every experiment's timing loop: it runs w reps times (at
// least once) and keeps the fastest rep, the standard noise-rejecting
// statistic for wall-clock comparisons. The rep counts as verified
// only if every rep verified.
func fastest(reps int, opts *tool.Options, w workload) (timing, error) {
	var best timing
	verified := true
	for r := 0; r == 0 || r < reps; r++ {
		t, err := w(opts)
		if err != nil {
			return timing{}, err
		}
		verified = verified && t.Verified
		if r == 0 || t.Time < best.Time {
			best = t
		}
	}
	best.Verified = verified
	return best, nil
}

// compare times w with the tool off, then attached with opts, and
// returns the figure row.
func compare(bench, config string, reps int, opts tool.Options, w workload) (OverheadRow, error) {
	off, err := fastest(reps, nil, w)
	if err != nil {
		return OverheadRow{}, err
	}
	on, err := fastest(reps, &opts, w)
	if err != nil {
		return OverheadRow{}, err
	}
	return OverheadRow{
		Benchmark:   bench,
		Config:      config,
		Off:         off.Time,
		On:          on.Time,
		Percent:     percent(off.Time, on.Time),
		RegionCalls: on.RegionCalls,
		Verified:    off.Verified && on.Verified,
	}, nil
}

// onRuntime runs fn on a fresh runtime of the given width, with a tool
// attached for the run when opts is non-nil.
func onRuntime(threads int, opts *tool.Options, fn func(rt *omp.RT) timing) (timing, error) {
	rt := omp.New(omp.Config{NumThreads: threads})
	defer rt.Close()
	if opts != nil {
		tl, err := tool.AttachRuntime(rt, *opts)
		if err != nil {
			return timing{}, err
		}
		defer tl.Detach()
	}
	return fn(rt), nil
}

// npbRun is the workload of one NPB benchmark at a class and width.
func npbRun(b npb.Benchmark, class npb.Class, threads int) workload {
	return func(opts *tool.Options) (timing, error) {
		return onRuntime(threads, opts, func(rt *omp.RT) timing {
			res := b.Run(rt, class)
			return timing{Time: res.Time, RegionCalls: res.RegionCalls, Verified: res.Verified}
		})
	}
}

// mzRun is the workload of one multi-zone benchmark at a class and
// decomposition; every rank attaches its own tool.
func mzRun(spec mz.Spec, procs, threads int, class npb.Class) workload {
	return func(opts *tool.Options) (timing, error) {
		params := mz.Params{Procs: procs, Threads: threads, Class: class}
		if opts != nil {
			params.WithTool = true
			params.ToolOptions = *opts
		}
		res := mz.Run(spec, params)
		return timing{Time: res.Time, RegionCalls: res.RegionCallsRank0(), Verified: res.Verified}, nil
	}
}

// Figure4Params configures the EPCC experiment. Its suite knobs also
// size epccbench's arraybench and schedbench runs.
type Figure4Params struct {
	ThreadCounts []int
	InnerReps    int // constructs per timing; zero means 128
	OuterReps    int // timings per directive; zero means 5
	DelayLength  int // delay-loop length inside each construct; zero means 64
	ToolOptions  tool.Options
}

// Suite returns an EPCC suite on rt with p's knobs.
func (p Figure4Params) Suite(rt *omp.RT) *epcc.Suite {
	s := epcc.NewSuite(rt)
	s.InnerReps, s.OuterReps, s.DelayLength = p.InnerReps, p.OuterReps, p.DelayLength
	return s
}

// Figure4 measures every EPCC directive with the collector detached
// and attached at each thread count. A row's Off and On are the
// directive's per-construct overhead; its Percent is the growth of the
// directive's mean inner-loop time.
func Figure4(p Figure4Params) ([]OverheadRow, error) {
	if p.InnerReps == 0 {
		p.InnerReps = 128
	}
	if p.OuterReps == 0 {
		p.OuterReps = 5
	}
	if p.DelayLength == 0 {
		p.DelayLength = 64
	}
	var rows []OverheadRow
	for _, threads := range p.ThreadCounts {
		// One rep: EPCC repeats each directive's timing itself.
		suite := func(opts *tool.Options) (timing, error) {
			return onRuntime(threads, opts, func(rt *omp.RT) timing {
				return timing{Directives: p.Suite(rt).MeasureAll()}
			})
		}
		off, err := fastest(1, nil, suite)
		if err != nil {
			return nil, err
		}
		on, err := fastest(1, &p.ToolOptions, suite)
		if err != nil {
			return nil, err
		}
		for i, d := range off.Directives {
			rows = append(rows, OverheadRow{
				Benchmark: d.Directive,
				Config:    strconv.Itoa(threads),
				Off:       d.Overhead,
				On:        on.Directives[i].Overhead,
				Percent:   percent(d.Time.Mean, on.Directives[i].Time.Mean),
				Verified:  true,
			})
		}
	}
	return rows, nil
}

// Figure5Params configures the NPB overhead experiment.
type Figure5Params struct {
	Class        npb.Class
	ThreadCounts []int
	Reps         int // timings per configuration; minimum is used
	Benchmarks   []string
	ToolOptions  tool.Options
}

// Figure5 measures NPB3.2-OMP profiling overhead: each benchmark runs
// with the collector detached and attached, and the percentage
// increase in wall time is the figure's bar.
func Figure5(p Figure5Params) ([]OverheadRow, error) {
	names := p.Benchmarks
	if names == nil {
		for _, b := range npb.Suite() {
			names = append(names, b.Name)
		}
	}
	var rows []OverheadRow
	for _, name := range names {
		b, err := npb.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, threads := range p.ThreadCounts {
			row, err := compare(name, strconv.Itoa(threads), p.Reps, p.ToolOptions,
				npbRun(b, p.Class, threads))
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// TableIRow is one row of Table I.
type TableIRow struct {
	Benchmark    string
	Regions      int
	RegionCalls  uint64
	PaperRegions uint64
	PaperCalls   uint64
	Verified     bool
}

// TableI measures the static region count and dynamic region-call
// count for every NPB benchmark at the given class.
func TableI(class npb.Class, threads int) []TableIRow {
	var rows []TableIRow
	for _, b := range npb.Suite() {
		rt := omp.New(omp.Config{NumThreads: threads})
		res := b.Run(rt, class)
		rt.Close()
		paper := PaperTableI[b.Name]
		rows = append(rows, TableIRow{
			Benchmark:    b.Name,
			Regions:      res.Regions,
			RegionCalls:  res.RegionCalls,
			PaperRegions: paper.Regions,
			PaperCalls:   paper.Calls,
			Verified:     res.Verified,
		})
	}
	return rows
}

// Decompositions are the process×thread splits of Figure 6/Table II.
var Decompositions = []struct{ Procs, Threads int }{
	{1, 8}, {2, 4}, {4, 2}, {8, 1},
}

// Figure6Params configures the multi-zone overhead experiment.
type Figure6Params struct {
	Class       npb.Class
	Reps        int
	Benchmarks  []string
	ToolOptions tool.Options
}

// Figure6 measures hybrid profiling overhead for every decomposition.
func Figure6(p Figure6Params) ([]OverheadRow, error) {
	names := p.Benchmarks
	if names == nil {
		for _, s := range mz.Benchmarks() {
			names = append(names, s.Name)
		}
	}
	var rows []OverheadRow
	for _, name := range names {
		spec, err := mz.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, d := range Decompositions {
			if d.Procs > spec.GX*spec.GY {
				continue
			}
			row, err := compare(name, fmt.Sprintf("%dx%d", d.Procs, d.Threads), p.Reps,
				p.ToolOptions, mzRun(spec, d.Procs, d.Threads, p.Class))
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// TableIIRow is one row of Table II.
type TableIIRow struct {
	Benchmark  string
	Config     string
	CallsRank0 uint64
	PaperCalls uint64
}

// TableII measures per-process region calls for every MZ benchmark and
// decomposition.
func TableII(class npb.Class) []TableIIRow {
	var rows []TableIIRow
	for _, spec := range mz.Benchmarks() {
		for _, d := range Decompositions {
			if d.Procs > spec.GX*spec.GY {
				continue
			}
			cfg := fmt.Sprintf("%dx%d", d.Procs, d.Threads)
			res := mz.Run(spec, mz.Params{Procs: d.Procs, Threads: d.Threads, Class: class})
			rows = append(rows, TableIIRow{
				Benchmark:  spec.Name,
				Config:     cfg,
				CallsRank0: res.RegionCallsRank0(),
				PaperCalls: PaperTableII[spec.Name][cfg],
			})
		}
	}
	return rows
}

// DecompositionRow is the §V-B experiment for one benchmark: total
// tool overhead split into the callback/communication part and the
// measurement/storage part.
type DecompositionRow struct {
	Benchmark string
	Config    string
	Off       time.Duration
	Callbacks time.Duration // callbacks registered, nothing stored
	Full      time.Duration // full measurement and storage
	// MeasurementShare is the percentage of the total overhead
	// attributable to measurement/storage.
	MeasurementShare float64
	// PaperShare is the corresponding number reported in §V-B.
	PaperShare float64
}

// Decomposition reproduces the paper's overhead split: LU-HP on 4
// threads and SP-MZ at 4 processes × 1 thread, each run with the tool
// detached, callbacks-only, and with full measurement.
func Decomposition(class npb.Class, reps int) ([]DecompositionRow, error) {
	spmz, err := mz.ByName("SP-MZ")
	if err != nil {
		return nil, err
	}
	cbOpts, fullOpts := tool.CallbacksOnly(), tool.FullMeasurement()
	var rows []DecompositionRow
	for _, c := range []struct {
		name, config string
		run          workload
	}{
		{"LU-HP", "4 threads", npbRun(npb.Benchmark{Name: "LU-HP", Run: npb.RunLUHP}, class, 4)},
		{"SP-MZ", "4x1", mzRun(spmz, 4, 1, class)},
	} {
		var t [3]time.Duration // off, callbacks, full
		for i, opts := range []*tool.Options{nil, &cbOpts, &fullOpts} {
			best, err := fastest(reps, opts, c.run)
			if err != nil {
				return nil, err
			}
			t[i] = best.Time
		}
		rows = append(rows, decompRow(c.name, c.config, t[0], t[1], t[2]))
	}
	return rows, nil
}

func decompRow(name, cfg string, off, cb, full time.Duration) DecompositionRow {
	row := DecompositionRow{
		Benchmark: name, Config: cfg,
		Off: off, Callbacks: cb, Full: full,
		PaperShare: PaperDecomposition[name],
	}
	total := float64(full - off)
	meas := float64(full - cb)
	if total > 0 && meas > 0 {
		row.MeasurementShare = 100 * meas / total
		if row.MeasurementShare > 100 {
			row.MeasurementShare = 100
		}
	}
	return row
}

// --- rendering ---

// WriteFigure4 renders Figure 4 rows as one table per thread count.
func WriteFigure4(w io.Writer, rows []OverheadRow) {
	for i, r := range rows {
		if i == 0 || r.Config != rows[i-1].Config {
			fmt.Fprintf(w, "--- %s threads ---\n", r.Config)
			fmt.Fprintf(w, "%-14s %8s %14s %14s %10s\n",
				"directive", "threads", "overhead(off)", "overhead(on)", "increase%")
		}
		fmt.Fprintf(w, "%-14s %8s %14v %14v %10.1f\n", r.Benchmark, r.Config, r.Off, r.On, r.Percent)
		if i == len(rows)-1 || rows[i+1].Config != r.Config {
			fmt.Fprintln(w)
		}
	}
}

// WriteOverheadRows renders figure rows as a fixed-width table.
func WriteOverheadRows(w io.Writer, title string, rows []OverheadRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %8s %12s %12s %10s %12s %8s\n",
		"bench", "config", "off", "on", "overhead%", "regioncalls", "verified")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8s %12v %12v %10.1f %12d %8v\n",
			r.Benchmark, r.Config, r.Off.Round(time.Microsecond),
			r.On.Round(time.Microsecond), r.Percent, r.RegionCalls, r.Verified)
	}
}

// figures holds what WriteFigure prints around Figures 5 and 6.
var figures = map[int]struct{ title, bars, paperWorst string }{
	5: {"Figure 5: NPB3.2-OMP profiling overheads (class %s)", "Figure 5 (bars: overhead% by thread count)", PaperFigure5Worst},
	6: {"Figure 6: NPB3.2-MZ-MPI profiling overheads (class %s)", "Figure 6 (bars: overhead% by procs x threads)", PaperFigure6Worst},
}

// WriteFigure renders Figure 5 or 6 (n) at class: the rows as CSV when
// csv is set, else the table, the bar chart and the paper's headline
// beside the measured worst. Only the CSV can fail.
func WriteFigure(w io.Writer, n int, class npb.Class, rows []OverheadRow, csv bool) error {
	if csv {
		return WriteCSV(w, rows)
	}
	f := figures[n]
	WriteOverheadRows(w, fmt.Sprintf(f.title, class), rows)
	fmt.Fprintln(w)
	WriteBarChart(w, f.bars, rows)
	fmt.Fprintf(w, "\npaper headline: %s incurs the highest overhead; measured worst: %s\n",
		f.paperWorst, Worst(rows))
	return nil
}

// WriteTableI renders Table I with paper-vs-measured columns.
func WriteTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintf(w, "Table I: parallel regions and region calls (NPB-OMP)\n")
	fmt.Fprintf(w, "%-8s %10s %12s %14s %14s %8s\n",
		"bench", "regions", "calls", "paper-regions", "paper-calls", "verified")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10d %12d %14d %14d %8v\n",
			r.Benchmark, r.Regions, r.RegionCalls, r.PaperRegions, r.PaperCalls, r.Verified)
	}
}

// WriteTableII renders Table II with paper-vs-measured columns.
func WriteTableII(w io.Writer, rows []TableIIRow) {
	fmt.Fprintf(w, "Table II: parallel region calls per process (NPB-MZ)\n")
	fmt.Fprintf(w, "%-8s %8s %14s %14s\n", "bench", "config", "calls(rank0)", "paper-calls")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8s %14d %14d\n", r.Benchmark, r.Config, r.CallsRank0, r.PaperCalls)
	}
}

// WriteDecomposition renders the §V-B rows.
func WriteDecomposition(w io.Writer, rows []DecompositionRow) {
	fmt.Fprintf(w, "Overhead decomposition (measurement/storage share of total overhead)\n")
	fmt.Fprintf(w, "%-8s %10s %12s %12s %12s %10s %10s\n",
		"bench", "config", "off", "callbacks", "full", "share%", "paper%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10s %12v %12v %12v %10.2f %10.2f\n",
			r.Benchmark, r.Config, r.Off.Round(time.Microsecond),
			r.Callbacks.Round(time.Microsecond), r.Full.Round(time.Microsecond),
			r.MeasurementShare, r.PaperShare)
	}
}

// Worst returns the benchmark with the highest overhead among rows,
// for checking the figures' headline orderings.
func Worst(rows []OverheadRow) string {
	var worst string
	var max float64 = -1
	for _, r := range rows {
		if r.Percent > max {
			max = r.Percent
			worst = r.Benchmark
		}
	}
	return worst
}

// --- flags ---

// ParseThreads reads a -threads flag: comma-separated positive counts.
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseBenchmarks reads a -bench flag: a comma-separated subset, or
// nil (every benchmark) when empty.
func ParseBenchmarks(s string) []string {
	if s == "" {
		return nil
	}
	names := strings.Split(s, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	return names
}
