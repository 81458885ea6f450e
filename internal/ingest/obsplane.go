package ingest

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
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

	reg.GaugeFunc("goomp_ingest_uptime_seconds",
		"Seconds since the ingest daemon started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("goomp_ingest_connections",
		"Client connections currently being served.",
		func() float64 { return float64(s.liveConns.Load()) })
	reg.CounterFunc("goomp_ingest_connections_total",
		"Client connections accepted since start.",
		func() float64 { return float64(s.connsTotal.Load()) })
	reg.CounterFunc("goomp_ingest_refused_total",
		"Connections refused at the MaxConns bound.",
		func() float64 { return float64(s.refused.Load()) })
	reg.CounterFunc("goomp_ingest_frames_total",
		"Data frames received after HELLO.",
		func() float64 { return float64(s.frames.Load()) })
	reg.CounterFunc("goomp_ingest_heartbeats_total",
		"Heartbeat frames received.",
		func() float64 { return float64(s.heartbeats.Load()) })
	reg.CounterFunc("goomp_ingest_duplicate_frames_total",
		"Resent frames already accepted on a previous connection.",
		func() float64 { return float64(s.duplicates.Load()) })
	reg.CounterFunc("goomp_ingest_bad_frames_total",
		"Frames refused as malformed or unsupported.",
		func() float64 { return float64(s.badFrames.Load()) })
	reg.CounterFunc("goomp_ingest_reaped_conns_total",
		"Half-open connections closed by the server-side heartbeat deadline.",
		func() float64 { return float64(s.reaped.Load()) })
	reg.GaugeFunc("goomp_ingest_runs",
		"Runs in the registry.",
		func() float64 { return float64(len(s.Runs())) })
	reg.GaugeFunc("goomp_ingest_runs_complete",
		"Registered runs that have sent BYE.",
		func() float64 {
			n := 0
			for _, ri := range s.Runs() {
				if ri.Complete {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("goomp_ingest_runs_quarantined",
		"Runs currently refusing chunks after a storage failure.",
		func() float64 {
			n := 0
			for _, ri := range s.Runs() {
				if ri.Quarantined {
					n++
				}
			}
			return float64(n)
		})
	reg.CounterFunc("goomp_ingest_salvaged_runs_total",
		"Runs startup recovery rebuilt from a journal or torn-prefix salvage.",
		func() float64 { return float64(s.salvagedRuns.Load()) })
	reg.CounterFunc("goomp_ingest_fsyncs_total",
		"fsync calls issued by run writer goroutines.",
		func() float64 {
			var n uint64
			for _, ri := range s.Runs() {
				n += ri.Fsyncs
			}
			return float64(n)
		})
	reg.CounterFunc("goomp_ingest_gc_runs_total",
		"Complete runs removed by the retention housekeeper.",
		func() float64 { return float64(s.gcRuns.Load()) })
	reg.CounterFunc("goomp_ingest_gc_bytes_total",
		"Bytes freed by the retention housekeeper.",
		func() float64 { return float64(s.gcBytes.Load()) })
	reg.GaugeFunc("goomp_ingest_stored_bytes",
		"Bytes under the data dir at the last housekeeping scan.",
		func() float64 { return float64(s.storedBytes.Load()) })

	for _, c := range []struct {
		name, help string
		field      func(*RunInfo) uint64
	}{
		{"goomp_ingest_run_chunks_total", "Trace blocks written per run.",
			func(ri *RunInfo) uint64 { return ri.Chunks }},
		{"goomp_ingest_run_samples_total", "Trace samples written per run.",
			func(ri *RunInfo) uint64 { return ri.Samples }},
		{"goomp_ingest_run_bytes_total", "Trace bytes written per run.",
			func(ri *RunInfo) uint64 { return ri.Bytes }},
		{"goomp_ingest_run_dropped_chunks_total", "Blocks dropped per run (queue overflow past the backpressure window, or a write failure).",
			func(ri *RunInfo) uint64 { return ri.DroppedChunks }},
		{"goomp_ingest_run_dropped_samples_total", "Samples inside dropped blocks, per run.",
			func(ri *RunInfo) uint64 { return ri.DroppedSamples }},
		{"goomp_ingest_run_storage_chunks_total", "Blocks refused or lost to a storage failure (INGEST_STORAGE), per run.",
			func(ri *RunInfo) uint64 { return ri.StorageChunks }},
		{"goomp_ingest_run_storage_samples_total", "Samples inside storage-refused blocks, per run.",
			func(ri *RunInfo) uint64 { return ri.StorageSamples }},
	} {
		reg.CounterSeries(c.name, c.help, func(emit obs.Emit) {
			for _, ri := range s.Runs() {
				emit(float64(c.field(&ri)), obs.Label{Name: "run", Value: ri.ID})
			}
		})
	}

	return obs.Serve(addr, obs.Config{
		Registry: reg,
		Extra: map[string]http.HandlerFunc{
			"/runs":    s.handleRuns,
			"/profile": s.handleProfile,
		},
	})
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
// are merged across files and runs.
func (s *Server) handleProfile(w http.ResponseWriter, req *http.Request) {
	want := req.URL.Query().Get("run")
	bySite := make(perf.RegionSiteSet)
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
		entries, err := os.ReadDir(ri.Dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".psxt" {
				continue
			}
			f, err := os.Open(filepath.Join(ri.Dir, e.Name()))
			if err != nil {
				continue
			}
			// The salvage contract covers a concurrently appended tail:
			// a partial final block yields the gap-free prefix.
			buf, _ := perf.ReadTraceStream(f)
			f.Close()
			if buf == nil {
				continue
			}
			samples := buf.Samples()
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
