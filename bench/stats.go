package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// summary is one metric's distribution over a run's samples.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// quantile interpolates the q-quantile of sorted xs the way Python's
// statistics.quantiles(method="exclusive") does, so spreads computed
// here match the ones the benchmark's driver computes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarize(unit string, xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{Unit: unit}
	}
	return summary{
		Unit: unit, N: len(s),
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
	}
}

func median(xs []float64) float64 { return summarize("", xs).Median }

// percentile is the nearest-rank p-th percentile (p in (0,100]) of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// recorder collects named samples; every metric the harness reports is
// the median of one of these series.
type recorder struct {
	mu     sync.Mutex
	units  map[string]string
	series map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{units: map[string]string{}, series: map[string][]float64{}}
}

func (r *recorder) add(name, unit string, v float64) {
	r.mu.Lock()
	r.units[name] = unit
	r.series[name] = append(r.series[name], v)
	r.mu.Unlock()
}

func (r *recorder) addAll(name, unit string, vs []float64) {
	r.mu.Lock()
	r.units[name] = unit
	r.series[name] = append(r.series[name], vs...)
	r.mu.Unlock()
}

func (r *recorder) values(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.series[name]...)
}

func (r *recorder) summaries() map[string]summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]summary, len(r.series))
	for name, xs := range r.series {
		out[name] = summarize(r.units[name], xs)
	}
	return out
}

// span is one benchmark-side interval around a call into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Op     int     `json:"op"`     // pair / run / pass number the span belongs to
	Name   string  `json:"name"`   // "<layer>.<what>"
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced run) records nothing, so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// onOdd picks the operations a traced run records spans for: every
// other one, so that traced and untraced operations interleave and
// their difference is the cost of tracing, not drift.
func (t *tracer) onOdd(i int) *tracer {
	if i%2 == 0 {
		return nil
	}
	return t
}

// opSeries is the series an operation's time goes to.
func opSeries(t *tracer) string {
	if t != nil {
		return "bench.op_traced_ms"
	}
	return "op_ms"
}

type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) start(name string, parent spanRef, op int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := float64(time.Since(t.t0)) / 1e3
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return spanRef{t: t, id: id}
}

// record stores a span whose ends are already known.
func (t *tracer) record(name string, parent spanRef, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent.id, Op: op, Name: name,
		Start: float64(start.Sub(t.t0)) / 1e3, End: float64(end.Sub(t.t0)) / 1e3,
	})
	t.mu.Unlock()
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := float64(time.Since(s.t.t0)) / 1e3
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// selfTimes is each span name's total duration minus the part its
// child spans cover, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += (s.End - s.Start - child[s.ID]) / 1e6
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// allocatedBytes is the process's running total of heap bytes
// allocated: a count, so unlike a time it does not move with the
// host's speed.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostInfo is the fingerprint results carry; -compare refuses to set
// results from different fingerprints side by side.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Team       int    `json:"omp_team"`
}

// readHost fingerprints the host; width is what the measuring process
// sets both GOMAXPROCS and the team size to.
func readHost(width int) hostInfo {
	h := hostInfo{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: width, Team: width,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
