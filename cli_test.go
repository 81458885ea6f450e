package goomp_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"goomp/internal/collector"
	"goomp/internal/perf"
)

// End-to-end tests of the command-line drivers: each binary is built
// once and run with small parameters, and its output is checked for
// the markers a user relies on.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "goomp-bin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
			"./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = &buildFailure{err: err, out: string(out)}
		}
	})
	if buildErr != nil {
		t.Fatalf("building commands: %v", buildErr)
	}
	return binDir
}

type buildFailure struct {
	err error
	out string
}

func (b *buildFailure) Error() string { return b.err.Error() + "\n" + b.out }

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

func TestCLIOmpprof(t *testing.T) {
	dir := t.TempDir()
	out := run(t, "ompprof", "-workload", "pi", "-threads", "2",
		"-sample", "1ms", "-trace", dir)
	mustContain(t, out,
		"pi ≈ 3.14159",
		"collector tool report",
		"OMP_EVENT_FORK",
		"join site",
		"traces written",
	)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no trace files written: %v", err)
	}

	// The offline pipeline consumes what ompprof wrote.
	var paths []string
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	rep := run(t, "ompreport", paths...)
	mustContain(t, rep, "parallel regions (by site)", "per-thread activity")

	dump := run(t, "ompreport", "-samples", paths[0])
	mustContain(t, dump, "samples", "OMP_EVENT")
	samplesMatchHeaders(t, run(t, "ompreport", "-samples", dir))
}

// samplesMatchHeaders checks that each file header of an
// ompreport -samples dump counts the sample lines that follow it.
func samplesMatchHeaders(t *testing.T, dump string) {
	t.Helper()
	header, declared, lines := "", 0, 0
	check := func() {
		if header != "" && lines != declared {
			t.Errorf("%q declares %d samples, %d sample lines follow", header, declared, lines)
		}
	}
	for _, line := range strings.Split(dump, "\n") {
		if strings.HasPrefix(line, "  [") {
			lines++
			continue
		}
		if i := strings.Index(line, ": "); i > 0 && strings.HasSuffix(line, " dropped") {
			var n int
			if _, err := fmt.Sscanf(line[i+2:], "%d samples", &n); err == nil {
				check()
				header, declared, lines = line, n, 0
			}
		}
	}
	check()
	if header == "" {
		t.Errorf("no file header in the dump:\n%s", dump)
	}
}

// TestCLIReportBySite: region IDs are per invocation, so the report's
// region table groups by site — N calls of one static region are one
// row with N calls, not N rows of one call each.
func TestCLIReportBySite(t *testing.T) {
	const calls = 5
	buf := perf.NewTraceBuffer(0, 0)
	for i := 0; i < calls; i++ {
		at := int64(100 * i)
		buf.Append(perf.Sample{Time: at + 1, Event: int32(collector.EventFork), Site: 0x4242, StackID: perf.NoStack})
		buf.Append(perf.Sample{Time: at + 11, Event: int32(collector.EventJoin), Region: uint64(i + 1), Site: 0x4242, StackID: perf.NoStack})
	}
	var out bytes.Buffer
	if err := perf.WriteTraceEnc(&out, buf, perf.Encoding{V2: true}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.0.psxt")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := run(t, "ompreport", path)
	_, table, ok := strings.Cut(rep, "parallel regions (by site):\n")
	table, _, _ = strings.Cut(table, "\n\n")
	var rows [][]string
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) == 4 && strings.HasPrefix(f[0], "0x") {
			rows = append(rows, f)
		}
	}
	if !ok || len(rows) != 1 || rows[0][0] != "0x4242" || rows[0][1] != fmt.Sprint(calls) {
		t.Fatalf("by-site rows = %q, want one row for site 0x4242 with %d calls:\n%s", rows, calls, rep)
	}
}

// TestCLIReportsHangSalvage: a hang salvage leaves hang.report beside
// the traces; ompreport renders it once per directory however many
// trace files share it, with -samples as without.
func TestCLIReportsHangSalvage(t *testing.T) {
	dir := t.TempDir()
	run(t, "ompprof", "-workload", "pi", "-threads", "2", "-sample", "0", "-trace", dir)
	if files, _ := filepath.Glob(filepath.Join(dir, "trace.*.psxt")); len(files) < 2 {
		t.Fatalf("ompprof wrote %d trace files, want one per thread", len(files))
	}
	lines := []string{"HANG detected: verdict=deadlock", "  cycle: a -> [lock] -> b -> [lock] -> a"}
	if err := os.WriteFile(filepath.Join(dir, "hang.report"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep := run(t, "ompreport", dir)
	mustContain(t, rep, "salvaged from a hung run")
	dump := run(t, "ompreport", "-samples", dir)
	mustContain(t, dump, "hang report salvaged with these traces")
	for _, out := range []string{rep, dump} {
		for _, line := range lines {
			if n := strings.Count(out, "  | "+line+"\n"); n != 1 {
				t.Errorf("ompreport rendered %q %d times, want once:\n%s", line, n, out)
			}
		}
	}
	samplesMatchHeaders(t, dump)
}

// TestCLISamplesSalvageRule: under -samples a torn or unparsable file
// follows the report's one rule — a warning on stderr and the file's
// intact prefix on stdout, exit 0 — so a file that does not parse
// prints a 0-sample header.
func TestCLISamplesSalvageRule(t *testing.T) {
	dir := t.TempDir()
	run(t, "ompprof", "-workload", "pi", "-threads", "2", "-sample", "0", "-trace", dir)
	whole, err := os.ReadFile(filepath.Join(dir, "trace.0.psxt"))
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.psxt")
	if err := os.WriteFile(torn, whole[:len(whole)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.psxt")
	if err := os.WriteFile(garbage, bytes.Repeat([]byte("not a trace "), 8), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{torn, garbage} {
		cmd := exec.Command(filepath.Join(binaries(t), "ompreport"), "-samples", path)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("ompreport -samples %s: %v\n%s", path, err, stderr.String())
		}
		mustContain(t, stderr.String(), "warning: "+path, "malformed trace stream", "using the intact prefix")
		samplesMatchHeaders(t, stdout.String())
		if path == garbage {
			mustContain(t, stdout.String(), garbage+": 0 samples, 0 distinct stacks, 0 dropped\n")
		}
	}
}

// TestCLIFixtureReportGolden: ompreport's report and its -samples dump
// of the checked-in reader fixtures are byte for byte the text in
// testdata/ompreport, which `go run ./cmd/ompreport [-samples] FILE`
// from the repository root wrote. A change to the readers or to the
// report that moves any of it shows here.
func TestCLIFixtureReportGolden(t *testing.T) {
	for _, fixture := range []string{"v1", "psx2-version5"} {
		path := "internal/perf/testdata/" + fixture + ".psxt"
		for _, mode := range []string{"report", "samples"} {
			args := []string{path}
			if mode == "samples" {
				args = []string{"-samples", path}
			}
			want, err := os.ReadFile(filepath.Join("testdata", "ompreport", fixture+"."+mode))
			if err != nil {
				t.Fatal(err)
			}
			if got := run(t, "ompreport", args...); got != string(want) {
				t.Errorf("ompreport %s:\n%s\nwant:\n%s", strings.Join(args, " "), got, want)
			}
		}
	}
}

func TestCLIOmpprofNPBWorkload(t *testing.T) {
	out := run(t, "ompprof", "-workload", "EP", "-class", "S", "-threads", "2")
	mustContain(t, out, "EP.S", "collector tool report")
}

func TestCLIEpccbench(t *testing.T) {
	out := run(t, "epccbench", "-threads", "2", "-inner", "4", "-outer", "1",
		"-delay", "4", "-sched", "-array")
	mustContain(t, out,
		"Figure 4",
		"PARALLEL",
		"BARRIER",
		"schedbench",
		"arraybench",
		"FIRSTPRIVATE",
	)
}

func TestCLINpbbenchTables(t *testing.T) {
	out := run(t, "npbbench", "-class", "S", "-tables")
	mustContain(t, out, "Table I", "LU-HP", "paper-calls", "298959")
}

func TestCLINpbbenchFigure(t *testing.T) {
	out := run(t, "npbbench", "-class", "S", "-threads", "2", "-reps", "1",
		"-bench", "EP")
	mustContain(t, out, "Figure 5", "EP", "paper headline")
}

func TestCLIMzbenchTables(t *testing.T) {
	out := run(t, "mzbench", "-class", "S", "-tables")
	mustContain(t, out, "Table II", "SP-MZ", "436672")
}

func TestCLIMzbenchFigure(t *testing.T) {
	out := run(t, "mzbench", "-class", "S", "-reps", "1", "-bench", "LU-MZ")
	mustContain(t, out, "Figure 6", "LU-MZ", "paper headline")
}

func TestCLIOverheads(t *testing.T) {
	out := run(t, "overheads", "-class", "S", "-reps", "1")
	mustContain(t, out, "decomposition", "LU-HP", "SP-MZ", "81.22", "99.35")
}

func TestCLIBadFlags(t *testing.T) {
	bins := binaries(t)
	for _, c := range [][]string{
		{"npbbench", "-class", "X"},
		{"mzbench", "-class", "X"},
		{"overheads", "-class", "X"},
		{"epccbench", "-threads", "zero"},
		{"ompreport"},
		{"ompprof", "-workload", "nope"},
		{"npbbench", "-class", ""},
		{"mzbench", "-class", ""},
		{"overheads", "-class", ""},
		{"ompprof", "-workload", "EP", "-class", ""},
		{"npbbench", "-tables", "-class", "WX"},
	} {
		cmd := exec.Command(filepath.Join(bins, c[0]), c[1:]...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%v succeeded, want failure:\n%s", c, out)
		}
		// A bad value is reported by name, never as a crash.
		bad := strconv.Quote(c[len(c)-1])
		if strings.Contains(string(out), "panic:") || len(c) > 1 && !strings.Contains(string(out), bad) {
			t.Errorf("%v: output does not name %s without a panic:\n%s", c, bad, out)
		}
	}
}

func TestCLICSVOutput(t *testing.T) {
	out := run(t, "npbbench", "-class", "S", "-threads", "2", "-reps", "1",
		"-bench", "EP", "-csv")
	mustContain(t, out, "benchmark,config,off_ns", "EP,2,")
}

// TestCLIOmpprofEnvironment: ompprof takes its runtime configuration
// and tool options from the environment through omp.ConfigFromEnv and
// tool.OptionsFromEnv, so the documented OMP_* and GOMP_* knobs are
// live, a flag beats its variable, and a malformed value ends the
// invocation with status 2 and the variable's name.
func TestCLIOmpprofEnvironment(t *testing.T) {
	ompprof := func(env []string, args ...string) (string, int) {
		cmd := exec.Command(filepath.Join(binaries(t), "ompprof"), args...)
		cmd.Env = append(os.Environ(), env...)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return string(out), code
	}

	out, code := ompprof([]string{"OMP_NUM_THREADS=3", "OMP_SCHEDULE=steal,4"}, "-sample", "0")
	if code != 0 || !strings.Contains(out, "on 3 threads") {
		t.Errorf("OMP_NUM_THREADS=3 (exit %d) did not size the team:\n%s", code, out)
	}
	out, code = ompprof([]string{"OMP_NUM_THREADS=3"}, "-sample", "0", "-threads", "2")
	if code != 0 || !strings.Contains(out, "on 2 threads") {
		t.Errorf("-threads 2 (exit %d) did not win over OMP_NUM_THREADS=3:\n%s", code, out)
	}
	// A flag's zero is a value too: -callback-budget 0 disarms the
	// watchdog the environment armed.
	armed := []string{"GOMP_CALLBACK_BUDGET=1ns", "GOMP_WATCHDOG_SAMPLE=1"}
	const trip = "breaker trip OMP_EVENT_FORK after"
	if out, code = ompprof(armed, "-workload", "EP", "-class", "S", "-sample", "0"); code != 0 || !strings.Contains(out, trip) {
		t.Errorf("GOMP_CALLBACK_BUDGET=1ns (exit %d) did not trip the breaker:\n%s", code, out)
	}
	if out, code = ompprof(armed, "-workload", "EP", "-class", "S", "-sample", "0", "-callback-budget", "0"); code != 0 || strings.Contains(out, trip) {
		t.Errorf("-callback-budget 0 (exit %d) did not disarm GOMP_CALLBACK_BUDGET=1ns:\n%s", code, out)
	}
	// An empty value is an unset knob, not a malformed one.
	if out, code = ompprof([]string{"GOMP_HANG_TIMEOUT=", "GOMP_TRACE_COMPRESS="}, "-sample", "0"); code != 0 {
		t.Errorf("empty knobs failed the run (exit %d):\n%s", code, out)
	}
	for _, bad := range []string{
		"OMP_SCHEDULE=fastest",
		"OMP_WAIT_POLICY=sometimes",
		"GOMP_CALLBACK_BUDGET=soon",
		"GOMP_TRACE_COMPRESS=maybe",
		"GOMP_INGEST_DURABLE=durable",
		"GOMP_HANG_TIMEOUT=soon",
		"GOMP_OVERHEAD_CEILING=150%",
	} {
		out, code := ompprof([]string{bad}, "-sample", "0")
		name := bad[:strings.IndexByte(bad, '=')]
		if code != 2 || !strings.Contains(out, name) {
			t.Errorf("%s: exit %d, want 2 with the variable named:\n%s", bad, code, out)
		}
	}
}
