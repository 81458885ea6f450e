package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistBucketBoundsInvertBucket(t *testing.T) {
	// Every bucket's inclusive upper bound must map back into that
	// bucket, and the next nanosecond must map into a later bucket.
	for i := 0; i < numHistBuckets-1; i++ {
		ub := histBucketBound(i)
		if ub < 0 {
			t.Fatalf("bucket %d: negative bound before overflow bucket", i)
		}
		if got := histBucket(uint64(ub)); got != i {
			t.Fatalf("bucket %d: bound %d maps to bucket %d", i, ub, got)
		}
		if got := histBucket(uint64(ub) + 1); got <= i {
			t.Fatalf("bucket %d: bound+1 (%d) maps to bucket %d, want > %d", i, ub+1, got, i)
		}
	}
	if histBucketBound(numHistBuckets-1) != -1 {
		t.Fatalf("overflow bucket bound = %d, want -1", histBucketBound(numHistBuckets-1))
	}
}

func TestHistBucketMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prev := uint64(0)
	prevBucket := histBucket(0)
	for i := 0; i < 200000; i++ {
		v := prev + uint64(rng.Intn(1<<20)) + 1
		b := histBucket(v)
		if b < prevBucket {
			t.Fatalf("histBucket not monotone: %d->%d but %d->%d", prev, prevBucket, v, b)
		}
		prev, prevBucket = v, b
	}
	// Huge values land in the overflow bucket.
	if b := histBucket(1 << 62); b != numHistBuckets-1 {
		t.Fatalf("histBucket(1<<62) = %d, want overflow %d", b, numHistBuckets-1)
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	durs := []time.Duration{0, 1, 7, 8, 100, time.Microsecond, time.Millisecond, 17 * time.Millisecond, time.Second}
	var sum int64
	for _, d := range durs {
		h.Observe(d)
		sum += int64(d)
	}
	h.ObserveNs(-5) // clamps to 0
	sum += 0

	s := h.Snapshot()
	if s.Count != uint64(len(durs)+1) {
		t.Fatalf("Count = %d, want %d", s.Count, len(durs)+1)
	}
	if s.SumNs != sum {
		t.Fatalf("SumNs = %d, want %d", s.SumNs, sum)
	}
	var total uint64
	lastUpper := int64(-2)
	for _, b := range s.Buckets {
		if b.UpperNs <= lastUpper && b.UpperNs >= 0 {
			t.Fatalf("buckets not ascending: %d after %d", b.UpperNs, lastUpper)
		}
		lastUpper = b.UpperNs
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, Count = %d", total, s.Count)
	}
	// Each observed duration must be covered by some bucket with
	// UpperNs >= value.
	for _, d := range durs {
		covered := false
		for _, b := range s.Buckets {
			if b.UpperNs < 0 || int64(d) <= b.UpperNs {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("duration %v not covered by any snapshot bucket", d)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshotter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var total uint64
				for _, b := range s.Buckets {
					total += b.Count
				}
				if total != s.Count {
					t.Errorf("inconsistent snapshot: buckets %d, count %d", total, s.Count)
					return
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.ObserveNs(int64(rng.Intn(1 << 30)))
			}
		}(int64(w))
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*perWorker {
		t.Fatalf("final Count = %d, want %d", s.Count, workers*perWorker)
	}
}

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_events_total", "Total events.", func() float64 { return 42 }, Label{"event", "fork"})
	r.GaugeFunc("test_threads", "Live threads.", func() float64 { return 4 })
	r.GaugeFunc("test_up", "Always one.", func() float64 { return 1 })
	r.CounterSeries("test_multi_total", "Multi-series.", func(emit Emit) {
		emit(1, Label{"k", "a"})
		emit(2, Label{"k", `quote " and \ slash`})
	})
	var h Histogram
	r.HistogramSeries("test_latency_seconds", "Latency.", func(emit EmitHistogram) {
		emit(h.Snapshot(), Label{"site", "0x1"})
	})
	h.ObserveNs(3)         // bucket ub=3ns
	h.ObserveNs(1_000_000) // ~1ms
	h.ObserveNs(1 << 50)   // overflow -> +Inf only

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP test_events_total Total events.\n",
		"# TYPE test_events_total counter\n",
		`test_events_total{event="fork"} 42`,
		"# TYPE test_threads gauge\n",
		"test_threads 4\n",
		"test_up 1\n",
		`test_multi_total{k="a"} 1`,
		`test_multi_total{k="quote \" and \\ slash"} 2`,
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{site="0x1",le="3e-09"} 1`,
		`test_latency_seconds_bucket{site="0x1",le="+Inf"} 3`,
		`test_latency_seconds_count{site="0x1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	idx := func(s string) int { return strings.Index(out, "# TYPE "+s) }
	names := []string{"test_events_total", "test_latency_seconds", "test_multi_total", "test_threads", "test_up"}
	for i := 1; i < len(names); i++ {
		if idx(names[i-1]) > idx(names[i]) {
			t.Errorf("families out of order: %s after %s", names[i-1], names[i])
		}
	}
}

func TestRegistryHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	r.HistogramSeries("cum_seconds", "", func(emit EmitHistogram) { emit(h.Snapshot()) })
	for i := 0; i < 100; i++ {
		h.ObserveNs(int64(i))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Bucket counts must be cumulative and end at the total.
	lines := strings.Split(b.String(), "\n")
	var prev uint64
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "cum_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmtSscan(ln, &v); err != nil {
			t.Fatalf("parse %q: %v", ln, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %d after %d in %q", v, prev, ln)
		}
		prev = v
	}
	if prev != 100 {
		t.Fatalf("final cumulative bucket = %d, want 100", prev)
	}
}

// fmtSscan pulls the trailing integer off an exposition line.
func fmtSscan(ln string, v *uint64) (int, error) {
	i := strings.LastIndexByte(ln, ' ')
	var err error
	*v, err = parseUint(ln[i+1:])
	return 1, err
}

func parseUint(s string) (uint64, error) {
	var v uint64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, io.ErrUnexpectedEOF
		}
		v = v*10 + uint64(r-'0')
	}
	return v, nil
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	one := func() float64 { return 1 }
	mustPanic("invalid name", func() { r.CounterFunc("9bad", "", one) })
	mustPanic("empty name", func() { r.CounterFunc("", "", one) })
	r.CounterFunc("dual", "", one)
	mustPanic("kind mismatch", func() { r.GaugeFunc("dual", "", one) })
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("srv_total", "", func() float64 { return 7 })
	healthy := true
	srv, err := Serve("127.0.0.1:0", Config{
		Registry: r,
		Health: func() HealthStatus {
			return HealthStatus{Healthy: healthy, Panics: []string{"p1"}}
		},
		State: func() StateSnapshot {
			return StateSnapshot{Threads: []ThreadState{{Thread: 0, State: "THR_WORK_STATE"}}}
		},
		Profile: func() ProfileSnapshot {
			return ProfileSnapshot{Samples: 2, Sites: []RegionSite{{Site: "0x2a", Calls: 1}}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "srv_total 7") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body := get("/healthz")
	if code != 200 {
		t.Errorf("/healthz healthy: code %d", code)
	}
	var h HealthStatus
	if err := json.Unmarshal([]byte(body), &h); err != nil || !h.Healthy || len(h.Panics) != 1 {
		t.Errorf("/healthz body: %q err %v", body, err)
	}
	healthy = false
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz degraded: code %d, want 503", code)
	}
	var st StateSnapshot
	if _, body := get("/state"); json.Unmarshal([]byte(body), &st) != nil || len(st.Threads) != 1 || st.Threads[0].State != "THR_WORK_STATE" {
		t.Errorf("/state body: %q", body)
	}
	var pr ProfileSnapshot
	if _, body := get("/profile"); json.Unmarshal([]byte(body), &pr) != nil || pr.Samples != 2 || len(pr.Sites) != 1 {
		t.Errorf("/profile body: %q", body)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d body %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}

func TestServeNilSources(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", Config{}); err == nil {
		t.Fatal("Serve without Registry should fail")
	}
	srv, err := Serve("127.0.0.1:0", Config{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/healthz", "/state", "/profile"} {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s with nil source: code %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestCloseDoesNotTearInFlightScrape is the regression test for the
// torn-scrape bug: Close used to hard-close the server while a handler
// was mid-write, handing the scraper a truncated (unparseable) body.
// Close now drains in-flight requests for a bounded grace first, so a
// scrape that raced Close must come back whole — and Close itself must
// still return promptly.
func TestCloseDoesNotTearInFlightScrape(t *testing.T) {
	entered := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", Config{
		Registry: NewRegistry(),
		Profile: func() ProfileSnapshot {
			close(entered)
			// Hold the handler mid-scrape long enough for Close to land
			// while the response has not been written yet.
			time.Sleep(300 * time.Millisecond)
			return ProfileSnapshot{Samples: 7, Sites: []RegionSite{{Site: "0x1", Calls: 7}}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		body []byte
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/profile")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- scrape{body: body, err: err}
	}()

	<-entered
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close took %v, want bounded by the drain grace", elapsed)
	}

	s := <-got
	if s.err != nil {
		// A clean network-level failure would be acceptable; a torn body
		// is not. But with the drain grace the scrape should simply win.
		t.Fatalf("scrape racing Close failed: %v", s.err)
	}
	var pr ProfileSnapshot
	if err := json.Unmarshal(s.body, &pr); err != nil {
		t.Fatalf("scrape racing Close returned a torn body %q: %v", s.body, err)
	}
	if pr.Samples != 7 {
		t.Fatalf("scrape racing Close returned %+v, want the full snapshot", pr)
	}
}
