package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

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
	out, err := Figure4Tool([]int{2}, 8, 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[2]) == 0 {
		t.Fatal("no rows for 2 threads")
	}
}

func TestPercentFloor(t *testing.T) {
	if percent(0, 100) != 0 {
		t.Error("zero baseline")
	}
	if percent(100*time.Millisecond, 100*time.Millisecond) != 0 {
		t.Error("no change should be 0")
	}
	if p := percent(100*time.Millisecond, 150*time.Millisecond); p < 49 || p > 51 {
		t.Errorf("50%% computed as %v", p)
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
	WriteCallsChart(&buf, "Table I shape", map[string]uint64{
		"LU-HP": 298959, "EP": 3, "SP": 3618,
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
