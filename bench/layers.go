package main

import (
	"bytes"
	"fmt"
	"os"
	"time"
)

// The per-layer probes. Each times calls into one layer's public
// functions, or is a span around such a call in a small end-to-end
// run; they are the same whichever workload the traced run is for, so
// that every per-layer metric exists on every workload. README.md says
// which end-to-end metric each should move.

// perOp runs fn, which performs n operations, reps times and records
// the time per operation of each.
func perOp(rec *recorder, name string, n, reps int, fn func() error) error {
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rec.add(name, "ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return nil
}

func noErr(fn func()) func() error { return func() error { fn(); return nil } }

const probeReps = 3

func runProbes(cfg config, rec *recorder) error {
	for _, probe := range []func(config, *recorder) error{
		probeOMP, probeCollector, probePerf, probeTool, probeWire, probePipeline, probeIngest, probeRecover,
	} {
		if err := probe(cfg, rec); err != nil {
			return err
		}
	}
	return nil
}

func probeOMP(cfg config, rec *recorder) error {
	rt := newRuntime(cfg.width)
	defer rt.Close()
	n := cfg.sz.probe.slowOps
	ompForkJoin(rt, n/10) // warm the pool
	perOp(rec, "omp.forkjoin_ns", n, probeReps, noErr(func() { ompForkJoin(rt, n) }))
	perOp(rec, "omp.barrier_ns", n, probeReps, noErr(func() { ompBarriers(rt, n) }))
	const iters, chunk = 4096, 8
	loops := max(1, 2*n/iters)
	return perOp(rec, "omp.for_dynamic_ns_per_iter", loops*iters, probeReps,
		noErr(func() { ompDynamicFor(rt, loops, iters, chunk) }))
}

func probeCollector(cfg config, rec *recorder) error {
	n := cfg.sz.probe.ops
	for _, p := range []struct {
		name       string
		registered bool
	}{{"collector.dispatch_unreg_ns", false}, {"collector.dispatch_reg_ns", true}} {
		loop, err := collectorDispatchLoop(n, p.registered)
		if err != nil {
			return err
		}
		perOp(rec, p.name, n, probeReps, noErr(loop))
	}
	return nil
}

func probePerf(cfg config, rec *recorder) error {
	ps := cfg.sz.probe
	for r := 0; r < probeReps; r++ {
		// A fresh preallocated buffer per repetition, built off the clock.
		perOp(rec, "perf.record_ns", 2*ps.slowOps, 1, noErr(perfRecordLoop(2*ps.slowOps)))
		perOp(rec, "perf.record_stack_ns", ps.slowOps, 1, noErr(perfRecordStackLoop(ps.slowOps)))
	}

	tr := genTrace(cfg.seed, ps.aggEvents, reportThreads)
	var blocks [][]Sample
	for _, perThread := range tr.blocks(true) {
		blocks = append(blocks, perThread...)
	}
	blocks = blocks[:min(len(blocks), ps.blocks)]
	events := len(blocks) * blockSamples
	streams := map[encoding][]byte{}
	for _, e := range []struct {
		enc  encoding
		name string
	}{{encV1, "v1"}, {encV2, "v2"}, {encFlate, "flate"}} {
		loop, size := encodeLoop(blocks, tr.Stacks, e.enc)
		if err := perOp(rec, "perf.encode_"+e.name+"_ns_per_event", events, probeReps, loop); err != nil {
			return err
		}
		rec.add("perf."+e.name+"_bytes_per_event", "B", float64(size())/float64(events))
		var stream bytes.Buffer
		for _, b := range blocks {
			enc, err := encodeBlock(b, tr.Stacks, e.enc)
			if err != nil {
				return err
			}
			stream.Write(enc)
		}
		streams[e.enc] = stream.Bytes()
	}
	for _, d := range []struct {
		enc  encoding
		name string
	}{{encV1, "perf.decode_v1_ns_per_event"}, {encV2, "perf.decode_v2_ns_per_event"}} {
		err := perOp(rec, d.name, events, probeReps, func() error {
			got, err := decodeStream(bytes.NewReader(streams[d.enc]))
			if err == nil && len(got) != events {
				err = fmt.Errorf("decoded %d of %d samples", len(got), events)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	err := perOp(rec, "perf.count_samples_ns_per_event", events, probeReps, func() error {
		n, err := countStream(bytes.NewReader(streams[encV2]))
		if err == nil && n != uint64(events) {
			err = fmt.Errorf("counted %d of %d samples", n, events)
		}
		return err
	})
	if err != nil {
		return err
	}

	var all []Sample
	for _, ss := range tr.Threads {
		all = append(all, ss...)
	}
	perOp(rec, "perf.region_profile_ns_per_event", len(all), probeReps, func() error {
		if got := regionProfile(all); got != tr.Sites {
			return fmt.Errorf("%d region sites, generator wrote %d", got, tr.Sites)
		}
		return nil
	})
	for r := 0; r < probeReps; r++ {
		tl, rep := timelinesReport(all)
		rec.add("analysis.timelines_ns_per_event", "ns", float64(tl.Nanoseconds())/float64(len(all)))
		rec.add("analysis.report_ns_per_event", "ns", float64(rep.Nanoseconds())/float64(len(all)))
	}
	return nil
}

func probeTool(cfg config, rec *recorder) error {
	for _, p := range []struct {
		name   string
		n      int
		stacks bool
	}{{"tool.event_full_ns", cfg.sz.probe.slowOps * 2, false}, {"tool.event_full_stack_ns", cfg.sz.probe.slowOps, true}} {
		for r := 0; r < probeReps; r++ {
			loop, done, err := toolEventLoop(p.n, p.stacks)
			if err != nil {
				return err
			}
			perOp(rec, p.name, p.n, 1, noErr(loop))
			done()
		}
	}
	return nil
}

func probeWire(cfg config, rec *recorder) error {
	pool, err := encodePool(cfg.seed, 1, cfg.width)
	if err != nil {
		return err
	}
	n := cfg.sz.probe.slowOps
	perOp(rec, "ingest.frame_encode_ns", n, probeReps, noErr(wireEncodeLoop(n, pool[0])))
	loop, err := wireDecodeLoop(n, pool[0])
	if err != nil {
		return err
	}
	return perOp(rec, "ingest.frame_decode_ns", n, probeReps, loop)
}

// probePipeline is a small epcc-fine: it gives the spans inside a
// profiled segment, the split of the slowdown into recording and
// shipping, and the share the sink sheds when asked for durable acks.
func probePipeline(cfg config, rec *recorder) error {
	cfg.sz.epccRounds = cfg.sz.probe.rounds
	w := newAppWorkload(cfg, true)
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	sub := newRecorder()
	for i := 0; i < cfg.sz.probe.pairs; i++ {
		off, err := w.bare(nil, spanRef{}, i)
		if err != nil {
			return err
		}
		on, err := w.profiled(w.seg, true, nil, spanRef{}, i)
		if err != nil {
			return err
		}
		w.record(sub, "op_ms", off, on)
		mem, err := w.profiled(w.seg, false, nil, spanRef{}, i)
		if err != nil {
			return err
		}
		rec.add("tool.slowdown_mem_x", "ratio", mem.total.Seconds()/off.Seconds())
	}
	for from, to := range map[string]string{
		"app_off_s": "omp.app_off_s", "events_dispatched": "collector.events_dispatched",
		"attach_ms": "tool.attach_ms", "segment_s": "tool.segment_s",
		"detach_ms": "tool.detach_ms", "seal_wait_ms": "tool.seal_wait_ms",
		"chunks_produced": "tool.chunks_produced", "chunks_shipped": "tool.chunks_shipped",
		"chunks_dropped": "tool.chunks_dropped", "chunks_spilled": "tool.chunks_spilled",
		"samples_dropped": "tool.samples_dropped",
	} {
		rec.addAll(to, sub.units[from], sub.values(from))
	}

	w.durable = true
	shed, err := w.profiled(w.seg, true, nil, spanRef{}, 0)
	if err != nil {
		return err
	}
	rec.add("tool.durable_shed_pct", "%", 100*float64(shed.counts.DroppedSamples)/float64(shed.counts.Dispatched))
	return nil
}

// probeIngest replays one closed-loop run under each of three other
// durability settings, whose spread bounds what fsync costs here, and
// a short open loop for the generator's own lateness and the ack codes
// seen.
func probeIngest(cfg config, rec *recorder) error {
	cfg.sz.runChunks = cfg.sz.probe.chunks
	pool, err := encodePool(cfg.seed, cfg.sz.blockPool, cfg.width)
	if err != nil {
		return err
	}
	// onPsxd runs probe against a psxd of the given fsync policy.
	onPsxd := func(fsync string, probe func(w *ingestWorkload) error) error {
		w := &ingestWorkload{cfg: cfg, fsync: fsync, pool: pool}
		defer w.teardown()
		if err := w.start(); err != nil {
			return err
		}
		return probe(w)
	}
	for _, m := range []struct {
		name, fsync string
		durable     bool
	}{
		{"ingest.nondurable_chunks_per_s", ingestFsync, false},
		{"ingest.fsync_never_chunks_per_s", "never", true},
		{"ingest.fsync_every1_chunks_per_s", "every-1", true},
	} {
		err := onPsxd(m.fsync, func(w *ingestWorkload) error {
			r, err := w.closedRun(cfg.sz.runChunks, m.durable, nil)
			if err == nil {
				rec.add(m.name, "chunks/s", float64(cfg.sz.runChunks)/r.elapsed.Seconds())
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	sub := &outcome{rec: newRecorder()}
	err = onPsxd(ingestFsync, func(w *ingestWorkload) error {
		return w.openPhase(time.Duration(cfg.sz.probe.openSecs*float64(time.Second)), sub, nil)
	})
	for _, name := range []string{"ack_p50_ms", "ack_p99_ms", "gen_late_p99_ms", "acks_overloaded", "acks_storage"} {
		rec.addAll("ingest."+name, sub.rec.units[name], sub.rec.values(name))
	}
	return err
}

// probeRecover leaves a durable run without its BYE, kills the daemon
// and times a new one starting on the same directory: journal replay.
func probeRecover(cfg config, rec *recorder) error {
	dir, err := os.MkdirTemp(cfg.root, "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := &ingestWorkload{cfg: cfg, fsync: ingestFsync}
	if w.pool, err = encodePool(cfg.seed, cfg.sz.blockPool, cfg.width); err != nil {
		return err
	}
	srv, err := startPsxd(dir, ingestFsync)
	if err != nil {
		return err
	}
	chunks := cfg.sz.probe.chunks
	rc, err := dialRaw(srv.addr(), "recover", true)
	if err == nil {
		run := &clientRun{id: "recover", chunks: chunks, ok: make([]bool, chunks)}
		err = closedLoop(rc, run, ingestWindow, w.chunk(0))
		rc.close()
	}
	srv.kill()
	if err != nil {
		return err
	}
	t0 := time.Now()
	srv, err = startPsxd(dir, ingestFsync)
	if err != nil {
		return err
	}
	rec.add("ingest.recover_ms", "ms", ms(time.Since(t0)))
	got, ok := srv.recoveredChunks("recover")
	srv.close()
	if !ok || got != uint64(chunks) {
		return fmt.Errorf("recovery found %d of %d durably acknowledged chunks", got, chunks)
	}
	return nil
}
