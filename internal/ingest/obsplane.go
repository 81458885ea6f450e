package ingest

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"goomp/internal/collector"
	"goomp/internal/obs"
	"goomp/internal/perf"
)

// The merged observability plane: one scrape answers for the whole
// fleet. /metrics carries the daemon's fleet counters plus per-run
// ingest series, /runs is the registry as JSON, and /profile is the
// cross-run region profile recomputed from the ingested trace files on
// demand (optionally scoped with ?run=ID). Reading an actively written
// run is safe: blocks are appended whole, and a torn tail — a block
// the writer is mid-append on — degrades to the gap-free prefix by the
// normal ReadTraceStream salvage contract.

// startObs builds the fleet registry and serves it with the ingest
// extras mounted next to the standard endpoints.
func (s *Server) startObs(addr string) (*obs.Server, error) {
	reg := obs.NewRegistry()
	s.fleetSeries(reg)
	s.runSeries(reg)
	return obs.Serve(addr, obs.Config{
		Registry: reg,
		Extra: map[string]http.HandlerFunc{
			"/runs":    s.handleRuns,
			"/profile": s.handleProfile,
		},
	})
}

// fleetSeries registers the daemon-wide series: its own counters, and
// figures folded out of every registered run.
func (s *Server) fleetSeries(reg *obs.Registry) {
	count := func(a *atomic.Uint64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	over := func(f func(*RunInfo) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, ri := range s.Runs() {
				n += f(&ri)
			}
			return float64(n)
		}
	}
	is := func(f func(*RunInfo) bool) func() float64 {
		return over(func(ri *RunInfo) uint64 {
			if f(ri) {
				return 1
			}
			return 0
		})
	}
	for _, m := range []struct {
		name, help string
		gauge      bool
		value      func() float64
	}{
		{"goomp_ingest_uptime_seconds", "Seconds since the ingest daemon started.", true, func() float64 { return time.Since(s.started).Seconds() }},
		{"goomp_ingest_connections", "Client connections currently being served.", true, func() float64 { return float64(s.liveConns.Load()) }},
		{"goomp_ingest_connections_total", "Client connections accepted since start.", false, count(&s.connsTotal)},
		{"goomp_ingest_refused_total", "Connections refused at the MaxConns bound.", false, count(&s.refused)},
		{"goomp_ingest_frames_total", "Data frames received after HELLO.", false, count(&s.frames)},
		{"goomp_ingest_heartbeats_total", "Heartbeat frames received.", false, count(&s.heartbeats)},
		{"goomp_ingest_duplicate_frames_total", "Resent frames already accepted on a previous connection.", false, count(&s.duplicates)},
		{"goomp_ingest_bad_frames_total", "Frames refused as malformed or unsupported.", false, count(&s.badFrames)},
		{"goomp_ingest_reaped_conns_total", "Half-open connections closed by the server-side heartbeat deadline.", false, count(&s.reaped)},
		{"goomp_ingest_runs", "Runs in the registry.", true, is(func(*RunInfo) bool { return true })},
		{"goomp_ingest_runs_complete", "Registered runs that have sent BYE.", true, is(func(ri *RunInfo) bool { return ri.Complete })},
		{"goomp_ingest_runs_quarantined", "Runs currently refusing chunks after a storage failure.", true, is(func(ri *RunInfo) bool { return ri.Quarantined })},
		{"goomp_ingest_salvaged_runs_total", "Runs startup recovery rebuilt from a journal or torn-prefix salvage.", false, count(&s.salvagedRuns)},
		{"goomp_ingest_fsyncs_total", "fsync calls issued by run writer goroutines.", false, over(func(ri *RunInfo) uint64 { return ri.Fsyncs })},
		{"goomp_ingest_gc_runs_total", "Complete runs removed by the retention housekeeper.", false, count(&s.gcRuns)},
		{"goomp_ingest_gc_bytes_total", "Bytes freed by the retention housekeeper.", false, count(&s.gcBytes)},
		{"goomp_ingest_stored_bytes", "Bytes under the data dir at the last housekeeping scan.", true, func() float64 { return float64(s.storedBytes.Load()) }},
	} {
		if m.gauge {
			reg.GaugeFunc(m.name, m.help, m.value)
		} else {
			reg.CounterFunc(m.name, m.help, m.value)
		}
	}
}

// runSeries registers the per-run series: each run's ledger buckets,
// as /runs shows them.
func (s *Server) runSeries(reg *obs.Registry) {
	for _, c := range []struct {
		name, help string
		field      func(*RunInfo) uint64
	}{
		{"goomp_ingest_run_chunks_total", "Trace blocks written per run.", func(ri *RunInfo) uint64 { return ri.Chunks }},
		{"goomp_ingest_run_samples_total", "Trace samples written per run.", func(ri *RunInfo) uint64 { return ri.Samples }},
		{"goomp_ingest_run_bytes_total", "Trace bytes written per run.", func(ri *RunInfo) uint64 { return ri.Bytes }},
		{"goomp_ingest_run_dropped_chunks_total", "Blocks shed per run (queue overflow past the backpressure window).", func(ri *RunInfo) uint64 { return ri.DroppedChunks }},
		{"goomp_ingest_run_dropped_samples_total", "Samples inside shed blocks, per run.", func(ri *RunInfo) uint64 { return ri.DroppedSamples }},
		{"goomp_ingest_run_storage_chunks_total", "Blocks refused or lost to a storage failure (INGEST_STORAGE), per run.", func(ri *RunInfo) uint64 { return ri.StorageChunks }},
		{"goomp_ingest_run_storage_samples_total", "Samples inside storage-refused blocks, per run.", func(ri *RunInfo) uint64 { return ri.StorageSamples }},
		{"goomp_ingest_run_duplicate_chunks_total", "Resent blocks already accepted (acked OK, not applied again), per run.", func(ri *RunInfo) uint64 { return ri.DuplicateChunks }},
		{"goomp_ingest_run_refused_chunks_total", "Blocks sent after the run's BYE or after its GC (INGEST_SEALED), per run.", func(ri *RunInfo) uint64 { return ri.RefusedChunks }},
	} {
		reg.CounterSeries(c.name, c.help, func(emit obs.Emit) {
			for _, ri := range s.Runs() {
				emit(float64(c.field(&ri)), obs.Label{Name: "run", Value: ri.ID})
			}
		})
	}
}

// RunsSnapshot is the /runs response body.
type RunsSnapshot struct {
	Runs []RunInfo `json:"runs"`
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, RunsSnapshot{Runs: s.Runs()})
}

// handleProfile answers the cross-run /profile: per-site region stats
// merged over every run's ingested traces (or one run with ?run=ID).
// Each per-thread file is paired fork→join on its own — one file is
// one descriptor's time-ordered stream — and the per-site aggregates
// are merged across files and runs. A file's samples are read block by
// block into one slice, which every file of the request reuses.
func (s *Server) handleProfile(w http.ResponseWriter, req *http.Request) {
	want := req.URL.Query().Get("run")
	bySite := make(perf.RegionSiteSet)
	var samples []perf.Sample
	resp := struct {
		Runs    int              `json:"runs"`
		Files   int              `json:"files"`
		Samples int              `json:"samples"`
		Sites   []obs.RegionSite `json:"sites"`
	}{}
	for _, ri := range s.Runs() {
		if want != "" && ri.ID != want {
			continue
		}
		resp.Runs++
		files, _ := filepath.Glob(filepath.Join(ri.Dir, "*.psxt"))
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				continue
			}
			// The salvage contract covers a concurrently appended tail:
			// a partial final block yields the gap-free prefix.
			samples = samples[:0]
			for r := perf.NewTraceReader(f); r.Next(); {
				samples = append(samples, r.Samples()...)
			}
			f.Close()
			resp.Files++
			resp.Samples += len(samples)
			bySite.Merge(perf.RegionProfileBySite(samples,
				int32(collector.EventFork), int32(collector.EventJoin)))
		}
	}
	for _, st := range bySite.Sorted() {
		resp.Sites = append(resp.Sites,
			obs.NewRegionSite(st.Site, st.Calls, st.TotalTime, st.MinTime, st.MaxTime))
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
