// Package obs is the in-process observability plane of an attached
// collector tool: live, machine-readable access to everything the tool
// measures, while the measured program runs.
//
// The paper's premise is that a collector-API tool can watch an OpenMP
// program during execution, not only post-mortem — yet a trace file is
// inherently post-mortem. This package closes that gap by serving the
// tool's state over HTTP:
//
//	/metrics  Prometheus text exposition: per-event dispatch counts,
//	          sample/drop/stream accounting, fault-isolation health,
//	          per-thread state residency, and per-region-site
//	          fork→join latency as log-linear histograms
//	/healthz  collector health and breaker state (503 when degraded)
//	/state    JSON snapshot of every live thread's current state,
//	          obtained through the collector get-state request path
//	/profile  JSON region profile computed from trace-buffer snapshots
//
// Everything is pull-based and reads the measurement path's existing
// lock-free structures — the atomic event counters, the atomically
// published trace-buffer chunk lists (the same snapshot path Detach's
// degraded flush uses), the cold-path health record. A scrape costs the
// scraper, never the OpenMP threads: no lock, counter or barrier is
// added to the event hot path.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"
)

// ThreadState is one live thread's state in a /state response.
type ThreadState struct {
	Thread int32  `json:"thread"`
	State  string `json:"state"`
	WaitID uint64 `json:"wait_id,omitempty"`
}

// StateSnapshot is the /state response body.
type StateSnapshot struct {
	Threads []ThreadState `json:"threads"`
}

// RegionSite is one static parallel region's aggregate in a /profile
// response. Site is the region's site PC, rendered in hex.
type RegionSite struct {
	Site    string `json:"site"`
	Calls   int    `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	MeanNs  int64  `json:"mean_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`

	// Work-stealing attribution: steal events recorded at this site
	// (zero unless the steal scheduler rebalanced there).
	ChunkSteals int `json:"chunk_steals,omitempty"`
	TaskSteals  int `json:"task_steals,omitempty"`
}

// NewRegionSite renders one region site's aggregate as a /profile row
// (steal attribution left zero).
func NewRegionSite(site uint64, calls int, total, lo, hi time.Duration) RegionSite {
	row := RegionSite{
		Site:    fmt.Sprintf("%#x", site),
		Calls:   calls,
		TotalNs: int64(total),
		MinNs:   int64(lo),
		MaxNs:   int64(hi),
	}
	if calls > 0 {
		row.MeanNs = int64(total / time.Duration(calls))
	}
	return row
}

// ProfileSnapshot is the /profile response body: the gap-free region
// profile reconstructed from the tool's buffer snapshots at request
// time. Samples counts the trace samples the snapshot saw (while
// streaming, only the not-yet-flushed residue remains in memory).
type ProfileSnapshot struct {
	Samples int          `json:"samples"`
	Sites   []RegionSite `json:"sites"`

	// Trace-wide steal totals (migration activity of the
	// work-stealing scheduler).
	ChunkSteals int `json:"chunk_steals,omitempty"`
	TaskSteals  int `json:"task_steals,omitempty"`
}

// HealthStatus is the /healthz response body. The faults are rendered
// as display strings; the machine-readable counters live in /metrics.
type HealthStatus struct {
	Healthy        bool     `json:"healthy"`
	BreakerTripped bool     `json:"breaker_tripped"`
	Panics         []string `json:"panics,omitempty"`
	Trips          []string `json:"trips,omitempty"`
	Wedged         []string `json:"wedged,omitempty"`
	UptimeSeconds  float64  `json:"uptime_seconds"`
}

// WaitInfo is one blocked thread in a /waits response: who is parked,
// on what resource, for how long, and what it holds.
type WaitInfo struct {
	Who    string  `json:"who"`
	Thread int32   `json:"thread"`
	Kind   string  `json:"kind"`
	Res    string  `json:"resource"`
	State  string  `json:"state,omitempty"`
	ForSec float64 `json:"for_sec"`
	Site   string  `json:"site"`
	Holds  string  `json:"holds,omitempty"`
}

// WaitsSnapshot is the /waits response body: the hang supervisor's
// live wait records, oldest first. Supervision off means the endpoint
// is absent (404), not an empty list.
type WaitsSnapshot struct {
	Enabled bool       `json:"enabled"`
	Waits   []WaitInfo `json:"waits"`
}

// Config wires a Server to its data sources. Registry must be set;
// endpoints whose source function is nil respond 404.
type Config struct {
	Registry *Registry
	Health   func() HealthStatus
	State    func() StateSnapshot
	Profile  func() ProfileSnapshot
	Waits    func() WaitsSnapshot

	// Extra maps additional URL patterns onto the plane's mux (the
	// ingest daemon's /runs, or a cross-run /profile). An Extra entry
	// for a built-in path replaces the built-in handler.
	Extra map[string]http.HandlerFunc
}

// Server serves the observability plane on one listener.
type Server struct {
	lis net.Listener
	srv *http.Server
	cfg Config
}

// Serve starts serving the plane on addr ("host:port"; ":0" picks a
// free port — read it back with Addr). It returns once the listener is
// bound; requests are handled on background goroutines until Close.
func Serve(addr string, cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("obs: Config.Registry is required")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{lis: lis, cfg: cfg}
	mux := http.NewServeMux()
	builtin := map[string]http.HandlerFunc{
		"/metrics": s.handleMetrics,
		"/healthz": s.handleHealthz,
		"/state":   s.handleState,
		"/profile": s.handleProfile,
		"/waits":   s.handleWaits,
		"/":        s.handleIndex,
	}
	for path, h := range builtin {
		if _, shadowed := cfg.Extra[path]; !shadowed {
			mux.HandleFunc(path, h)
		}
	}
	for path, h := range cfg.Extra {
		mux.HandleFunc(path, h)
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(lis)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the plane's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// closeGrace bounds how long Close waits for in-flight scrapes before
// severing them: long enough for any healthy response to flush whole,
// short enough that a detach never stalls on a stuck client.
const closeGrace = time.Second

// Close stops the listener and drains in-flight handlers gracefully:
// a scrape racing Close either completes whole or fails cleanly with a
// closed connection — it is never cut mid-body, which would hand the
// scraper a torn /profile or /metrics payload that parses as a
// shorter, wrong document. Handlers still running after the grace
// window are hard-closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Health == nil {
		http.NotFound(w, nil)
		return
	}
	h := s.cfg.Health()
	code := http.StatusOK
	if !h.Healthy {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.State == nil {
		http.NotFound(w, nil)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.State())
}

func (s *Server) handleProfile(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Profile == nil {
		http.NotFound(w, nil)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Profile())
}

func (s *Server) handleWaits(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Waits == nil {
		http.NotFound(w, nil)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Waits())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "goomp observability plane")
	fmt.Fprintln(w, "  /metrics   Prometheus exposition")
	fmt.Fprintln(w, "  /healthz   collector health (503 when degraded)")
	fmt.Fprintln(w, "  /state     live thread states (JSON)")
	fmt.Fprintln(w, "  /profile   live region profile (JSON)")
	fmt.Fprintln(w, "  /waits     live hang-supervision wait records (JSON)")
	extras := make([]string, 0, len(s.cfg.Extra))
	for path := range s.cfg.Extra {
		extras = append(extras, path)
	}
	sort.Strings(extras)
	for _, path := range extras {
		fmt.Fprintf(w, "  %-10s (extra)\n", path)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
