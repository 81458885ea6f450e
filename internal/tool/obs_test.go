package tool_test

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"goomp/internal/epcc"
	"goomp/internal/obs"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// TestSamplerObservesGrownTeam pins the sampler bugfix: threads that
// join the team only after attach (via SetNumThreads) must still show
// up in the state histogram, because the sampler polls the live
// descriptor set instead of a thread count frozen at attach time.
func TestSamplerObservesGrownTeam(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, Options{
		Measure:      true,
		SamplePeriod: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	busy := func(tc *omp.ThreadCtx) {
		deadline := time.Now().Add(20 * time.Millisecond)
		for time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	rt.Parallel(busy)

	// Grow the team past the size the sampler saw at attach.
	rt.SetNumThreads(4)
	rt.Parallel(busy)
	tl.Detach()

	rep := tl.Report()
	if rep.States == nil {
		t.Fatal("no state histogram")
	}
	for id := int32(0); id < 4; id++ {
		if rep.States.Total(id) == 0 {
			t.Errorf("thread %d never observed by the sampler", id)
		}
	}
}

var eventsRe = regexp.MustCompile(`(?m)^goomp_events_total\{event="([^"]+)"\} (\d+)$`)

// eventsFromMetrics parses the goomp_events_total series out of a
// Prometheus exposition.
func eventsFromMetrics(body string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range eventsRe.FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			continue
		}
		out[m[1]] = v
	}
	return out
}

// scrape fetches url without any testing.T calls, so it is safe from
// non-test goroutines.
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestObsEndToEnd runs an EPCC measurement with the observability
// plane enabled, scrapes /metrics while the workload runs, and checks
// the scraped event counts against tool.Report: mid-run scrapes must
// be monotone and bounded by the final counts, and a scrape taken
// while the runtime is quiescent must match Report exactly — the
// acceptance criterion that the plane reads the very counters the
// report is built from.
func TestObsEndToEnd(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.ObsAddr = "127.0.0.1:0"
	opts.SamplePeriod = 500 * time.Microsecond
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	base := tl.ObsURL()
	if base == "" {
		t.Fatal("no obs URL despite ObsAddr")
	}

	// Scrape concurrently with the EPCC run: counts must never exceed
	// what the final report sees, and successive scrapes must be
	// monotone (the counters are cumulative).
	done := make(chan struct{})
	scrapes := make(chan map[string]uint64, 1024)
	go func() {
		defer close(scrapes)
		for {
			select {
			case <-done:
				return
			default:
				body, err := scrape(base + "/metrics")
				if err == nil {
					scrapes <- eventsFromMetrics(body)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	s := epcc.NewSuite(rt)
	s.InnerReps = 16
	s.OuterReps = 2
	s.DelayLength = 8
	s.MeasureAll()
	close(done)

	// The runtime is quiescent now (no region in flight), so a scrape
	// and the report read identical atomic counters.
	_, body := fetch(t, base+"/metrics")
	finalScrape := eventsFromMetrics(body)
	rep := tl.Report()
	if len(finalScrape) == 0 {
		t.Fatalf("no goomp_events_total series in exposition:\n%s", body)
	}
	for e, n := range rep.Events {
		if got := finalScrape[e.String()]; got != n {
			t.Errorf("quiescent scrape %s = %d, report says %d", e, got, n)
		}
	}

	prev := make(map[string]uint64)
	for sc := range scrapes {
		for name, v := range sc {
			if v < prev[name] {
				t.Errorf("mid-run scrape went backwards: %s %d -> %d", name, prev[name], v)
			}
			prev[name] = v
			if final := finalScrape[name]; v > final {
				t.Errorf("mid-run scrape %s = %d exceeds final %d", name, v, final)
			}
		}
	}

	// The other endpoints serve live data for the same run.
	code, body := fetch(t, base+"/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz = %d on a healthy run: %s", code, body)
	}
	var health obs.HealthStatus
	if err := json.Unmarshal([]byte(body), &health); err != nil || !health.Healthy {
		t.Errorf("/healthz body %q (err %v)", body, err)
	}
	var profile obs.ProfileSnapshot
	_, body = fetch(t, base+"/profile")
	if err := json.Unmarshal([]byte(body), &profile); err != nil {
		t.Fatalf("/profile decode: %v", err)
	}
	if len(profile.Sites) == 0 {
		t.Error("/profile has no region sites after an EPCC run")
	}
	var calls int
	for _, site := range profile.Sites {
		calls += site.Calls
		if site.TotalNs < 0 || site.MinNs < 0 {
			t.Errorf("negative region durations in %+v", site)
		}
	}
	if calls == 0 {
		t.Error("/profile reports zero region invocations")
	}
	_, body = fetch(t, base+"/state")
	var state obs.StateSnapshot
	if err := json.Unmarshal([]byte(body), &state); err != nil {
		t.Fatalf("/state decode: %v", err)
	}
	if len(state.Threads) == 0 {
		t.Error("/state lists no threads while attached")
	}
}

// TestObsClosesOnDetach: the plane must stop serving once the tool
// detaches, so followers see the run end.
func TestObsClosesOnDetach(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	opts := FullMeasurement()
	opts.ObsAddr = "127.0.0.1:0"
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := tl.ObsURL()
	if code, _ := fetch(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d while attached", code)
	}
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	tl.Detach()
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("plane still serving after Detach")
	}
}

// TestObsMetricsDuringRegions scrapes repeatedly while parallel
// regions run under -race in CI: the scrape path must be safe against
// concurrent event writers (it only reads atomics and snapshots).
func TestObsMetricsDuringRegions(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()
	opts := FullMeasurement()
	opts.ObsAddr = "127.0.0.1:0"
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	base := tl.ObsURL()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {
				tc.For(64, func(int) {})
			})
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			for _, path := range []string{"/metrics", "/profile", "/state", "/healthz"} {
				fetch(t, base+path)
			}
		}
	}
}

// TestObsClockSource checks that the obs plane and the report both say
// what the trace's timestamps were read from.
func TestObsClockSource(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 1})
	defer rt.Close()
	opts := FullMeasurement()
	opts.ObsAddr = "127.0.0.1:0"
	tl, err := AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	src := perf.ClockSource()
	_, body := fetch(t, tl.ObsURL()+"/metrics")
	if want := `goomp_clock_source_info{source="` + src + `"} 1`; !strings.Contains(body, want) {
		t.Errorf("exposition lacks %s:\n%s", want, body)
	}
	var out strings.Builder
	if _, err := tl.Report().WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if want := "clock source: " + src; !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
}
