//go:build !goexperiment.synctest

package faketime

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Without GOEXPERIMENT=synctest there is no testing/synctest, so Run
// runs the calling test in a build of its own package that has it:
// made once per test binary, with the race detector when this binary
// has it, and removed by Main. A plain `go test` thus still runs every
// bubbled test, under its own name.
var (
	dir   string
	build = sync.OnceValues(func() (string, error) {
		var err error
		if dir, err = os.MkdirTemp("", "faketime"); err != nil {
			return "", err
		}
		bin := filepath.Join(dir, "synctest.test")
		bi, ok := debug.ReadBuildInfo()
		race := ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
		// go test runs a test binary in its package's directory.
		cmd := exec.Command("go", "test", "-c", "-o", bin, "-race="+strconv.FormatBool(race))
		cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("%v\n%s", err, out)
		}
		return bin, nil
	})
)

// Main runs the package's tests and removes the synctest build.
func Main(m *testing.M) {
	m.Run()
	os.RemoveAll(dir)
}

// Wait is only called by an f that Run runs, which this build never
// does.
func Wait() { panic("faketime: Wait outside a bubble") }

// Run runs the calling test in the package's synctest build, at this
// binary's GOMAXPROCS, and fails it with that run's output unless it
// passed there.
func Run(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	bin, err := build()
	if err != nil {
		t.Fatalf("building the package with GOEXPERIMENT=synctest: %v", err)
	}
	run := "^" + strings.ReplaceAll(regexp.QuoteMeta(t.Name()), "/", "$/^") + "$"
	args := []string{"-test.v", "-test.run=" + run, "-test.cpu=" + strconv.Itoa(runtime.GOMAXPROCS(0))}
	if d, ok := t.Deadline(); ok {
		args = append(args, "-test.timeout="+time.Until(d).String())
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: "+t.Name()+" ") {
		t.Fatalf("%s in a GOEXPERIMENT=synctest build: %v\n%s", t.Name(), err, out)
	}
}
