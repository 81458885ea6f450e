package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func quickConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{
		workload: workload, seed: 7, seconds: 0.3, trace: trace, width: teamWidth(),
		root: t.TempDir(), outDir: t.TempDir(), sz: quickSizes,
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads: BENCHMARK.json has %v, harness has %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s: BENCHMARK.json has %s [%s], harness has %s [%s]", kind, name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %s [%s]: bad or repeated name, or bad unit", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s %s: better is %q", kind, name, better)
		}
		seen[name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, harness has %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// Every workload reports exactly the end-to-end metrics untraced and
// exactly the per-layer metrics traced, with nothing failed, and the
// traced run leaves a span file.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := quickConfig(t, name, trace)
			det, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := det.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", name, trace, d.name, m.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result is not JSON: %v", name, trace, err)
			}
		}
	}
}

// A stored block that was tampered with must fail the run's check.
func TestTamperedBlockIsCaught(t *testing.T) {
	w := &reportWorkload{cfg: quickConfig(t, "report-read", false)}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	path := filepath.Join(w.runs[encV2].path, "trace.1.psxt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := &outcome{rec: newRecorder()}
	if err := w.measure(0, nil, out); err == nil || out.failed == 0 {
		t.Fatalf("tampered trace file passed: err=%v failed=%d", err, out.failed)
	}
}

// stallConn acknowledges every chunk at once, except that sending one
// chunk blocks for a while, as it does when a stalled server stops
// reading.
type stallConn struct {
	acks    chan uint64
	stallAt uint64
	stall   time.Duration
}

func (c *stallConn) sendChunk(seq uint64, _ int32, _ int, _ []byte) error {
	if seq == c.stallAt {
		time.Sleep(c.stall)
	}
	c.acks <- seq
	return nil
}
func (c *stallConn) flush() error                      { return nil }
func (c *stallConn) readAck() (uint64, ackCode, error) { return <-c.acks, ackOK, nil }

// The open loop times a chunk from when it was due, so the chunks that
// queue behind a stall carry the stall in their latency even though
// each is acknowledged the moment it is finally sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const chunks, stallAt = 120, 40
	const interval, stall = time.Millisecond, 60 * time.Millisecond
	conn := &stallConn{acks: make(chan uint64, chunks), stallAt: stallAt, stall: stall}
	run := &clientRun{chunks: chunks, ok: make([]bool, chunks)}
	lat, late, err := openLoop(conn, run, time.Now(), interval,
		func(int) (int32, int, []byte) { return 0, blockSamples, nil }, nil, spanRef{})
	if err != nil || len(lat) != chunks {
		t.Fatalf("open loop: %d latencies, err %v", len(lat), err)
	}
	// Chunk stallAt+10 fell due 10 intervals into the stall.
	behind := stallAt + 10
	want := ms(stall - 10*interval)
	if lat[behind] < want*0.8 || late[behind] < want*0.8 {
		t.Errorf("chunk queued behind the stall: latency %.1f ms, generator late %.1f ms, want about %.1f ms", lat[behind], late[behind], want)
	}
	if before := median(lat[:stallAt-1]); before > want/4 {
		t.Errorf("chunks before the stall: median latency %.1f ms", before)
	}
}

// pipeline.go is the one file that may call into goomp/internal.
func TestOnlyPipelineImportsInternal(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "goomp/") && file != "pipeline.go" {
				t.Errorf("%s imports %s; only pipeline.go may", file, imp.Path.Value)
			}
		}
	}
}
