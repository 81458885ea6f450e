package tool_test

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"goomp/internal/analysis"
	"goomp/internal/collector"
	"goomp/internal/obs"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// runStealLoop drives a zipf-ish steal-scheduled loop skewed enough
// that thieves must hit the heavy thread's deque.
func runStealLoop(rt *omp.RT) {
	rt.Parallel(func(tc *omp.ThreadCtx) {
		tc.ForSched(2048, omp.ScheduleSteal, 1, func(lo, hi int) {
			if lo < 8 {
				for s := 0; s < 200; s++ {
					runtime.Gosched()
				}
			}
		})
	})
}

// Steal events flow through the full attribution pipeline: trace
// samples carry the victim in the State slot, the per-site steal
// profile and migration edges reconstruct thief/victim pairs, and the
// per-thread tally balances (every steal is one thread's gain and
// another's loss).
func TestStealAttributionInTrace(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 8})
	defer rt.Close()
	tl, err := AttachRuntime(rt, Options{Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	runStealLoop(rt)

	var sinks []*bytes.Buffer
	err = tl.WriteTraces(func(thread int32) (io.Writer, error) {
		b := &bytes.Buffer{}
		sinks = append(sinks, b)
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tl.Detach()
	var samples []perf.Sample
	for _, s := range sinks {
		b, err := perf.ReadTraceStream(bytes.NewReader(s.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, b.Samples()...)
	}
	steals := perf.StealProfileBySite(samples,
		int32(collector.EventChunkSteal), int32(collector.EventTaskSteal))
	if len(steals) == 0 {
		t.Fatal("no steal sites in trace of a skewed steal-scheduled loop")
	}
	total := 0
	for _, st := range steals {
		total += st.ChunkSteals + st.TaskSteals
	}
	edges := perf.StealEdges(samples,
		int32(collector.EventChunkSteal), int32(collector.EventTaskSteal))
	if len(edges) == 0 {
		t.Fatal("no migration edges reconstructed")
	}
	edgeTotal := 0
	for _, e := range edges {
		if e.Victim == e.Thief {
			t.Errorf("self-edge T%d -> T%d", e.Victim, e.Thief)
		}
		edgeTotal += e.Chunk + e.Task
	}
	if edgeTotal != total {
		t.Errorf("edges carry %d steals, sites carry %d", edgeTotal, total)
	}
	var stolen, lost int
	for _, a := range analysis.StealActivities(samples) {
		stolen += a.ChunkStolen + a.TaskStolen
		lost += a.ChunkLost + a.TaskLost
	}
	if stolen != total || lost != total {
		t.Errorf("per-thread tally stolen=%d lost=%d, want %d each", stolen, lost, total)
	}

	// The report writers must render the attribution without error.
	var buf bytes.Buffer
	perf.WriteStealTable(&buf, steals, nil)
	perf.WriteStealEdges(&buf, edges)
	analysis.WriteStealReport(&buf, analysis.StealActivities(samples))
	if buf.Len() == 0 {
		t.Error("steal report writers produced nothing")
	}
}

// The obs plane surfaces steal activity live: /profile carries
// trace-wide and per-site steal counts, /metrics the
// goomp_steals_total series.
func TestStealAttributionInObsProfile(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 8})
	defer rt.Close()
	tl, err := AttachRuntime(rt, Options{Measure: true, ObsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	runStealLoop(rt)

	body, err := scrape(tl.ObsURL() + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.ProfileSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad /profile JSON: %v", err)
	}
	if snap.ChunkSteals == 0 {
		t.Errorf("/profile trace-wide chunk_steals = 0 after a steal-scheduled loop: %s", body)
	}
	perSite := 0
	for _, site := range snap.Sites {
		perSite += site.ChunkSteals + site.TaskSteals
	}
	if perSite != snap.ChunkSteals+snap.TaskSteals {
		t.Errorf("per-site steals %d != trace-wide %d", perSite, snap.ChunkSteals+snap.TaskSteals)
	}

	metrics, err := scrape(tl.ObsURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(metrics), []byte(`goomp_steals_total{kind="chunk"}`)) {
		t.Error("goomp_steals_total{kind=\"chunk\"} missing from /metrics")
	}
}
