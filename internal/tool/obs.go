package tool

import (
	"fmt"
	"sort"
	"time"

	"goomp/internal/collector"
	"goomp/internal/obs"
	"goomp/internal/perf"
)

// The observability adapter: everything the obs plane serves is read
// from state the tool already maintains for the measurement itself —
// the collector's atomic per-event dispatch counters (the same source
// Report uses, so a scrape and the final report agree exactly for
// completed events), the streamer's accounting atomics, the cold-path
// health record, the sampler's state histogram, and the trace buffers'
// atomic chunk snapshots (the same path a degraded Detach flush takes).
// A scrape therefore costs only the scraping goroutine; the event hot
// path carries no extra instruction.

// startObs builds the tool's metric registry and starts serving it.
func (t *Tool) startObs(addr string) (*obs.Server, error) {
	t.obsQ = t.col.NewQueue()
	reg := obs.NewRegistry()

	reg.GaugeFunc("goomp_tool_uptime_seconds",
		"Seconds since the tool attached.",
		func() float64 { return time.Since(t.attachedAt).Seconds() })
	reg.GaugeFunc("goomp_clock_source_info",
		"What the trace timestamps were read from: the TSC, or the monotonic clock where it is not usable.",
		func() float64 { return 1 }, obs.Label{Name: "source", Value: perf.ClockSource()})
	reg.GaugeFunc("goomp_tool_threads",
		"Bound thread descriptors currently known to the collector.",
		func() float64 { return float64(len(t.liveThreadIDs())) })

	reg.CounterSeries("goomp_events_total",
		"Event callback dispatches per registered event.",
		func(emit obs.Emit) {
			for _, e := range t.events {
				emit(float64(t.col.EventCount(e)), obs.Label{Name: "event", Value: e.String()})
			}
		})

	reg.CounterSeries("goomp_steals_total",
		"Work-stealing scheduler migrations, by kind (chunk: loop chunks between chunk deques; task: explicit tasks between task deques).",
		func(emit obs.Emit) {
			emit(float64(t.col.EventCount(collector.EventChunkSteal)),
				obs.Label{Name: "kind", Value: "chunk"})
			emit(float64(t.col.EventCount(collector.EventTaskSteal)),
				obs.Label{Name: "kind", Value: "task"})
		})

	reg.GaugeSeries("goomp_trace_samples",
		"Trace samples currently held in each thread's buffer (while streaming, only the unflushed residue).",
		func(emit obs.Emit) {
			for _, tb := range t.snapshotBuffers() {
				emit(float64(tb.buf.Len()), obs.Label{Name: "thread", Value: fmt.Sprint(tb.id)})
			}
		})
	reg.CounterSeries("goomp_trace_dropped_total",
		"Samples lost to buffer limits, per thread.",
		func(emit obs.Emit) {
			for _, tb := range t.snapshotBuffers() {
				emit(float64(tb.buf.Dropped()), obs.Label{Name: "thread", Value: fmt.Sprint(tb.id)})
			}
		})
	reg.CounterFunc("goomp_throttled_samples_total",
		"Samples suppressed by selective collection (MaxSamplesPerSite).",
		func() float64 { return float64(t.throttle.Skipped()) })

	reg.CounterSeries("goomp_thread_state_samples_total",
		"Asynchronous state-sampler observations per thread and state.",
		func(emit obs.Emit) {
			if t.sampler == nil {
				return
			}
			t.mu.Lock()
			defer t.mu.Unlock()
			threads := make([]int32, 0, len(t.histogram.Counts))
			for th := range t.histogram.Counts {
				threads = append(threads, th)
			}
			sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
			for _, th := range threads {
				m := t.histogram.Counts[th]
				states := make([]int32, 0, len(m))
				for st := range m {
					states = append(states, st)
				}
				sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
				for _, st := range states {
					emit(float64(m[st]),
						obs.Label{Name: "thread", Value: fmt.Sprint(th)},
						obs.Label{Name: "state", Value: collector.State(st).String()})
				}
			}
		})

	reg.HistogramSeries("goomp_region_seconds",
		"Fork-to-join latency per static parallel region site, recomputed from buffer snapshots at scrape time.",
		func(emit obs.EmitHistogram) {
			hists := make(map[uint64]*obs.Histogram)
			for _, tb := range t.snapshotBuffers() {
				perf.ForkJoinDurations(tb.buf.Samples(),
					int32(collector.EventFork), int32(collector.EventJoin),
					func(s *perf.Sample, d time.Duration) {
						h := hists[s.Site]
						if h == nil {
							h = &obs.Histogram{}
							hists[s.Site] = h
						}
						h.Observe(d)
					})
			}
			sites := make([]uint64, 0, len(hists))
			for site := range hists {
				sites = append(sites, site)
			}
			sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
			for _, site := range sites {
				emit(hists[site].Snapshot(),
					obs.Label{Name: "site", Value: fmt.Sprintf("%#x", site)})
			}
		})

	reg.GaugeFunc("goomp_collector_healthy",
		"1 while no callback panic, breaker trip or wedged callback has been observed.",
		func() float64 {
			if t.col.Health().Healthy() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("goomp_breaker_tripped",
		"1 after the callback watchdog has tripped (event generation paused until resume).",
		func() float64 {
			if t.col.BreakerTripped() {
				return 1
			}
			return 0
		})
	reg.CounterSeries("goomp_callback_panics_total",
		"Contained callback panics per event (the callback was auto-unregistered).",
		func(emit obs.Emit) {
			for _, p := range t.col.Health().Panics {
				emit(float64(p.Count), obs.Label{Name: "event", Value: p.Event.String()})
			}
		})
	reg.CounterFunc("goomp_breaker_trips_total",
		"Circuit-breaker trips recorded by the callback watchdog.",
		func() float64 { return float64(len(t.col.Health().Trips)) })

	if s := t.stream; s != nil {
		reg.CounterFunc("goomp_stream_retries_total",
			"Transient stream-I/O failures that were retried.",
			func() float64 { return float64(s.retries.Load()) })
		reg.CounterFunc("goomp_stream_discarded_chunks_total",
			"Trace blocks the streaming storage gave up on after retries.",
			func() float64 { return chunksOf(s.led.Settled(discarded)) })
		reg.CounterFunc("goomp_stream_discarded_samples_total",
			"Samples inside discarded trace blocks.",
			func() float64 { return samplesOf(s.led.Settled(discarded)) })
		reg.CounterFunc("goomp_stream_forced_drops_total",
			"Chunks discarded by the DropChunk fault-injection hook.",
			func() float64 { return chunksOf(s.led.Settled(forced)) })
		reg.GaugeFunc("goomp_stream_degraded_threads",
			"Threads whose trace file failed permanently and fell back to in-memory retention.",
			func() float64 { return float64(s.degraded.Load()) })
		if n := s.net; n != nil {
			reg.CounterFunc("goomp_ingest_produced_chunks_total",
				"Trace blocks handed to the network sink.",
				func() float64 { return chunksOf(n.led.Taken()) })
			reg.CounterFunc("goomp_ingest_overloaded_acks_total",
				"INGEST_OVERLOADED acks from the daemon (backpressure fed to the governor).",
				func() float64 { return float64(n.overloadedAcks.Load()) })
			if n.dir != "" {
				reg.CounterFunc("goomp_spill_chunks_total",
					"Trace blocks parked in the store-and-forward spill (left in the local trace files).",
					func() float64 { return chunksOf(n.spilledCounts()) })
				reg.CounterFunc("goomp_spill_replayed_chunks_total",
					"Spilled trace blocks read back from the trace files, delivered and acknowledged.",
					func() float64 { return chunksOf(n.led.Settled(replayed)) })
				reg.GaugeFunc("goomp_spill_pending_chunks",
					"Trace blocks currently parked in the spill, waiting for replay.",
					func() float64 { return chunksOf(n.parkedCounts()) })
			}
		}
	}

	if g := t.gov; g != nil {
		reg.GaugeFunc("goomp_governor_level",
			"Current degradation-ladder level (0 full, 3 shed-events, 4 counters-only).",
			func() float64 { return float64(g.Level()) })
		reg.GaugeFunc("goomp_governor_overhead_ratio",
			"EWMA profiling overhead as a fraction of wall time.",
			func() float64 { return g.Ratio() })
		reg.GaugeFunc("goomp_governor_overhead_ceiling",
			"Configured overhead ceiling the governor enforces.",
			func() float64 { return g.Ceiling() })
		reg.CounterFunc("goomp_governor_steps_down_total",
			"Degradation-ladder steps taken toward less measurement.",
			func() float64 { return float64(g.StepsDown()) })
		reg.CounterFunc("goomp_governor_steps_up_total",
			"Degradation-ladder steps recovered when load receded.",
			func() float64 { return float64(g.StepsUp()) })
	}

	cfg := obs.Config{
		Registry: reg,
		Health:   t.obsHealth,
		State:    t.obsState,
		Profile:  t.obsProfile,
	}
	if t.sup != nil {
		// Supervision starts before the obs plane in AttachCollector, so
		// t.sup is final here; without it /waits stays 404.
		cfg.Waits = t.obsWaits
	}
	return obs.Serve(addr, cfg)
}

// chunksOf and samplesOf pick one half of a tally for a metric.
func chunksOf(chunks, _ uint64) float64   { return float64(chunks) }
func samplesOf(_, samples uint64) float64 { return float64(samples) }

// obsHealth renders the collector's fault-isolation snapshot for
// /healthz.
func (t *Tool) obsHealth() obs.HealthStatus {
	h := t.col.Health()
	st := obs.HealthStatus{
		Healthy:        h.Healthy(),
		BreakerTripped: t.col.BreakerTripped(),
		UptimeSeconds:  time.Since(t.attachedAt).Seconds(),
	}
	for _, p := range h.Panics {
		st.Panics = append(st.Panics,
			fmt.Sprintf("%s ×%d (unregistered): %s", p.Event, p.Count, p.Last))
	}
	for _, tr := range h.Trips {
		st.Trips = append(st.Trips,
			fmt.Sprintf("%s after %v (events paused)", tr.Event, tr.Elapsed))
	}
	for _, w := range h.Wedged {
		st.Wedged = append(st.Wedged, fmt.Sprintf("%s for %v", w.Event, w.Age))
	}
	return st
}

// obsState answers /state: one get-state protocol request per live
// thread. Handlers share one private queue; requests on it are
// serialized by obsMu (the collector's queues are not reusable
// concurrently, and the tool's own queue must stay free for Detach).
func (t *Tool) obsState() obs.StateSnapshot {
	var snap obs.StateSnapshot
	t.obsMu.Lock()
	defer t.obsMu.Unlock()
	for _, id := range t.liveThreadIDs() {
		st, wait, ec := collector.QueryState(t.obsQ, id)
		if ec != collector.ErrOK {
			continue
		}
		snap.Threads = append(snap.Threads, obs.ThreadState{
			Thread: id,
			State:  st.String(),
			WaitID: wait,
		})
	}
	return snap
}

// obsProfile answers /profile: the per-site region profile recomputed
// from the buffers' atomic snapshots — the same gap-free path a
// degraded Detach flush reads, so it never blocks or races a writer.
func (t *Tool) obsProfile() obs.ProfileSnapshot {
	var snap obs.ProfileSnapshot
	// Pair fork/join per buffer, then merge the per-site stats:
	// each buffer is one descriptor's time-ordered stream, but distinct
	// buffers can carry the same thread number (transient nested
	// descriptors), so concatenating them before pairing could mismatch.
	bySite := make(perf.RegionSiteSet)
	stealsBySite := make(map[uint64]perf.StealSiteStats)
	for _, tb := range t.snapshotBuffers() {
		samples := tb.buf.Samples()
		snap.Samples += len(samples)
		bySite.Merge(perf.RegionProfileBySite(samples,
			int32(collector.EventFork), int32(collector.EventJoin)))
		for _, st := range perf.StealProfileBySite(samples,
			int32(collector.EventChunkSteal), int32(collector.EventTaskSteal)) {
			agg := stealsBySite[st.Site]
			agg.ChunkSteals += st.ChunkSteals
			agg.TaskSteals += st.TaskSteals
			stealsBySite[st.Site] = agg
			snap.ChunkSteals += st.ChunkSteals
			snap.TaskSteals += st.TaskSteals
		}
	}
	for _, st := range bySite.Sorted() {
		row := obs.NewRegionSite(st.Site, st.Calls, st.TotalTime, st.MinTime, st.MaxTime)
		row.ChunkSteals = stealsBySite[st.Site].ChunkSteals
		row.TaskSteals = stealsBySite[st.Site].TaskSteals
		snap.Sites = append(snap.Sites, row)
	}
	return snap
}
