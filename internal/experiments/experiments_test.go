package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"goomp/internal/epcc"
	"goomp/internal/npb"
	"goomp/internal/tool"
)

func TestFigure5SmallRun(t *testing.T) {
	rows, err := Figure5(Figure5Params{
		Class:        npb.ClassS,
		ThreadCounts: []int{1, 2},
		Reps:         1,
		Benchmarks:   []string{"EP", "LU"},
		ToolOptions:  tool.FullMeasurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s @%s not verified", r.Benchmark, r.Config)
		}
		if r.Off <= 0 || r.On <= 0 {
			t.Errorf("%s @%s non-positive times", r.Benchmark, r.Config)
		}
		if r.Percent < 0 {
			t.Errorf("%s @%s negative percent", r.Benchmark, r.Config)
		}
	}
}

func TestFigure5UnknownBenchmark(t *testing.T) {
	_, err := Figure5(Figure5Params{
		Class: npb.ClassS, ThreadCounts: []int{1}, Benchmarks: []string{"nope"},
	})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTableISmall(t *testing.T) {
	rows := TableI(npb.ClassS, 2)
	if len(rows) != len(npb.Suite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if !r.Verified {
			t.Errorf("%s not verified", r.Benchmark)
		}
		if r.PaperCalls == 0 {
			t.Errorf("%s missing paper reference", r.Benchmark)
		}
	}
	// The shape that matters: LU-HP dominates, EP is minimal — both in
	// our measurement and in the paper's column.
	if byName["LU-HP"].RegionCalls <= byName["SP"].RegionCalls {
		t.Error("LU-HP does not dominate SP in region calls")
	}
	if byName["EP"].RegionCalls != 3 {
		t.Errorf("EP calls = %d, want 3", byName["EP"].RegionCalls)
	}
}

func TestFigure6AndTableIISmall(t *testing.T) {
	rows, err := Figure6(Figure6Params{
		Class: npb.ClassS, Reps: 1,
		Benchmarks:  []string{"LU-MZ"},
		ToolOptions: tool.FullMeasurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Decompositions) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Decompositions))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s @%s not verified", r.Benchmark, r.Config)
		}
	}

	t2 := TableII(npb.ClassS)
	if len(t2) == 0 {
		t.Fatal("empty table II")
	}
	// Halving law in the measured column.
	byCfg := map[string]uint64{}
	for _, r := range t2 {
		if r.Benchmark == "SP-MZ" {
			byCfg[r.Config] = r.CallsRank0
		}
	}
	if byCfg["1x8"] != 2*byCfg["2x4"] || byCfg["2x4"] != 2*byCfg["4x2"] {
		t.Errorf("halving law violated: %v", byCfg)
	}
	// Paper reference column present and also halving.
	if PaperTableII["SP-MZ"]["1x8"] != 2*PaperTableII["SP-MZ"]["2x4"] {
		t.Error("paper reference data inconsistent")
	}
}

func TestDecompositionSmall(t *testing.T) {
	rows, err := Decomposition(npb.ClassS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (LU-HP and SP-MZ)", len(rows))
	}
	for _, r := range rows {
		if r.MeasurementShare < 0 || r.MeasurementShare > 100 {
			t.Errorf("%s share = %v out of range", r.Benchmark, r.MeasurementShare)
		}
		if r.PaperShare == 0 {
			t.Errorf("%s missing paper share", r.Benchmark)
		}
	}
}

func TestFigure4Small(t *testing.T) {
	rows, err := Figure4(Figure4Params{
		ThreadCounts: []int{2}, InnerReps: 8, OuterReps: 1, DelayLength: 8,
		ToolOptions: tool.FullMeasurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows for 2 threads")
	}
}

func TestFigure4ProducesAllDirectives(t *testing.T) {
	rows, err := Figure4(Figure4Params{
		ThreadCounts: []int{2},
		InnerReps:    16,
		OuterReps:    2,
		DelayLength:  8,
		ToolOptions:  tool.FullMeasurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(epcc.Directives()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(epcc.Directives()))
	}
	for _, r := range rows {
		if r.Percent < 0 {
			t.Errorf("%s: negative percent increase %v", r.Benchmark, r.Percent)
		}
	}
}

func TestFigure4WithCallbacksOnly(t *testing.T) {
	rows, err := Figure4(Figure4Params{
		ThreadCounts: []int{2},
		InnerReps:    8,
		OuterReps:    1,
		DelayLength:  8,
		ToolOptions:  tool.CallbacksOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

// TestFastestVerifiedOnlyIfEveryRep: the timing loop keeps the fastest
// rep's time and region calls, but a rep that failed verification
// fails the whole measurement, wherever it falls.
func TestFastestVerifiedOnlyIfEveryRep(t *testing.T) {
	opts := tool.CallbacksOnly()
	for _, failing := range []int{0, 1, 2, -1} {
		r := 0
		rep, err := fastest(3, &opts, func(got *tool.Options) (timing, error) {
			if got != &opts {
				t.Errorf("workload got opts %p, want %p", got, &opts)
			}
			times := []time.Duration{3, 1, 2}
			run := timing{Time: times[r], RegionCalls: uint64(10 + r), Verified: r != failing}
			r++
			return run, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if r != 3 || rep.Time != 1 || rep.RegionCalls != 11 {
			t.Errorf("failing rep %d: %d runs, kept %+v; want 3 runs, the fastest (time 1, calls 11)", failing, r, rep)
		}
		if want := failing < 0; rep.Verified != want {
			t.Errorf("failing rep %d: Verified = %v, want %v", failing, rep.Verified, want)
		}
	}
	r := 0
	if _, err := fastest(0, nil, func(*tool.Options) (timing, error) { r++; return timing{}, nil }); err != nil || r != 1 {
		t.Errorf("reps 0: %d runs (err %v), want 1", r, err)
	}
}

func TestPercentFloor(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name    string
		off, on time.Duration
		lo, hi  float64
	}{
		{"zero baseline", 0, 100, 0, 0},
		{"zero baseline, ns", 0, 10, 0, 0},
		{"no change", 100 * ms, 100 * ms, 0, 0},
		{"sub-1% increase reported as zero", 1000, 1005, 0, 0},
		{"negative increase floors at zero", 1000, 900, 0, 0},
		{"10%", 1000, 1100, 9, 11},
		{"50%", 100 * ms, 150 * ms, 49, 51},
	} {
		if got := percent(c.off, c.on); got < c.lo || got > c.hi {
			t.Errorf("%s: percent(%v, %v) = %v, want in [%v, %v]", c.name, c.off, c.on, got, c.lo, c.hi)
		}
	}
}

func TestWriteFigure4(t *testing.T) {
	var buf bytes.Buffer
	WriteFigure4(&buf, []OverheadRow{{
		Benchmark: "BARRIER", Config: "4", Percent: 5.0,
	}})
	out := buf.String()
	if !strings.Contains(out, "BARRIER") || !strings.Contains(out, "5.0") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestParseThreadsAndBenchmarks(t *testing.T) {
	if got, err := ParseThreads("1, 2,8"); err != nil || fmt.Sprint(got) != "[1 2 8]" {
		t.Errorf("ParseThreads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "zero", "2,0", "2,"} {
		if _, err := ParseThreads(bad); err == nil {
			t.Errorf("ParseThreads(%q) accepted", bad)
		}
	}
	if got := ParseBenchmarks(""); got != nil {
		t.Errorf("ParseBenchmarks(\"\") = %q, want nil (every benchmark)", got)
	}
	if got := ParseBenchmarks("EP, LU-HP"); fmt.Sprint(got) != "[EP LU-HP]" {
		t.Errorf("ParseBenchmarks = %q", got)
	}
}

func TestWorst(t *testing.T) {
	rows := []OverheadRow{
		{Benchmark: "A", Percent: 2},
		{Benchmark: "B", Percent: 9},
		{Benchmark: "C", Percent: 1},
	}
	if Worst(rows) != "B" {
		t.Errorf("Worst = %q", Worst(rows))
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	WriteOverheadRows(&buf, "Figure 5", []OverheadRow{
		{Benchmark: "LU-HP", Config: "8", Off: time.Millisecond, On: 2 * time.Millisecond, Percent: 100, RegionCalls: 42, Verified: true},
	})
	WriteTableI(&buf, []TableIRow{{Benchmark: "EP", Regions: 3, RegionCalls: 3, PaperRegions: 3, PaperCalls: 3, Verified: true}})
	WriteTableII(&buf, []TableIIRow{{Benchmark: "SP-MZ", Config: "1x8", CallsRank0: 10, PaperCalls: 436672}})
	WriteDecomposition(&buf, []DecompositionRow{{Benchmark: "LU-HP", Config: "4 threads", MeasurementShare: 80, PaperShare: 81.22}})
	out := buf.String()
	for _, want := range []string{"Figure 5", "LU-HP", "Table I", "Table II", "436672", "decomposition"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestPaperReferenceShapes(t *testing.T) {
	// Sanity over the transcribed paper data itself.
	if PaperTableI["LU-HP"].Calls <= PaperTableI["SP"].Calls {
		t.Error("paper Table I: LU-HP must dominate")
	}
	halves := func(big, small uint64) bool {
		// The paper's odd counts halve with rounding (40353 → 20177).
		return big == 2*small || big == 2*small-1
	}
	for name, cols := range PaperTableII {
		if !halves(cols["1x8"], cols["2x4"]) || !halves(cols["2x4"], cols["4x2"]) ||
			!halves(cols["4x2"], cols["8x1"]) {
			t.Errorf("paper Table II %s does not halve: %v", name, cols)
		}
	}
}

func TestWriteBarChart(t *testing.T) {
	var buf bytes.Buffer
	WriteBarChart(&buf, "Figure X", []OverheadRow{
		{Benchmark: "LU-HP", Config: "8", Percent: 6},
		{Benchmark: "LU-HP", Config: "4", Percent: 3},
		{Benchmark: "EP", Config: "8", Percent: 0},
	})
	out := buf.String()
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "LU-HP") {
		t.Errorf("chart missing content:\n%s", out)
	}
	if !strings.Contains(out, "█") {
		t.Error("chart has no bars")
	}
	var empty bytes.Buffer
	WriteBarChart(&empty, "none", nil)
	if !strings.Contains(empty.String(), "no data") {
		t.Error("empty chart not labeled")
	}
}

func TestWriteCallsChart(t *testing.T) {
	var buf bytes.Buffer
	WriteCallsChart(&buf, "Table I shape", []TableIRow{
		{Benchmark: "EP", RegionCalls: 3}, {Benchmark: "SP", RegionCalls: 3618},
		{Benchmark: "LU-HP", RegionCalls: 298959},
	})
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("chart lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "LU-HP") {
		t.Errorf("largest entry not first:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []OverheadRow{
		{Benchmark: "EP", Config: "2", Off: time.Millisecond, On: 2 * time.Millisecond,
			Percent: 100, RegionCalls: 3, Verified: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "benchmark,config") {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "EP,2,1000000,2000000,100.00,3,true" {
		t.Errorf("row = %q", lines[1])
	}
}
