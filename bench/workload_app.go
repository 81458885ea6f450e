package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// appWorkload is the paper's experiment: the same application segment
// timed with no tool attached and under the full-measurement tool
// shipping to psxd over loopback, in interleaved pairs.
//
// epcc-fine runs the EPCC directives around a short delay, so event
// dispatch and recording dominate; npb-coarse runs the NPB kernels, so
// compute and scheduling dominate and the sink runs in durable mode at
// a low rate.
type appWorkload struct {
	cfg     config
	fine    bool
	fsync   string
	durable bool

	dir  string
	srv  *psxd
	rt   *ompRuntime
	seg  func() error
	runs int
}

func newAppWorkload(cfg config, fine bool) *appWorkload {
	if fine {
		return &appWorkload{cfg: cfg, fine: true, fsync: "seal"}
	}
	return &appWorkload{cfg: cfg, fsync: "every-8", durable: true}
}

// segment builds the workload's segment, or with warm the smallest
// segment that goes down every path once.
func (w *appWorkload) segment(warm bool) func() error {
	rounds, passes, class := w.cfg.sz.epccRounds, w.cfg.sz.npbPasses, w.cfg.sz.npbClass
	if warm {
		rounds, passes, class = 1, 1, 'S'
	}
	if w.fine {
		return epccSegment(w.rt, w.cfg.seed, rounds)
	}
	return npbSegment(w.rt, w.cfg.seed, passes, class)
}

// setup starts psxd and the runtime and runs a minimal segment once
// bare and once under a memory-only tool, so worker pools and the
// record path are warm. setup_s has to hold still, so the warm-up is
// small (team-wide spinning work is what the sandbox's speed changes
// hit hardest) and ships nothing (a run directory costs three fsyncs,
// and fsync here swings severalfold for minutes at a time); the first
// of a run's many pairs warms the sink.
func (w *appWorkload) setup() error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.root, "psxd-"); err != nil {
		return err
	}
	if w.srv, err = startPsxd(w.dir, w.fsync); err != nil {
		return err
	}
	w.rt = newRuntime(w.cfg.width)
	warm := w.segment(true)
	if err := warm(); err != nil {
		return err
	}
	if _, err := w.profiled(warm, false, nil, spanRef{}, -1); err != nil {
		return err
	}
	w.seg = w.segment(false)
	return nil
}

func (w *appWorkload) teardown() {
	if w.rt != nil {
		w.rt.Close()
	}
	if w.srv != nil {
		w.srv.close()
	}
	os.RemoveAll(w.dir)
}

// onResult is one profiled segment, attach to sealed.
type onResult struct {
	total, attach, segment, detach, sealWait time.Duration

	counts toolCounts
	landed uint64 // samples found in psxd's run directory (or retained in memory)
	bytes  int64  // in the run directory
	alloc  uint64 // heap bytes the process allocated from attach to sealed
}

// profiled attaches the tool, runs seg, detaches, waits for psxd to
// show the run complete, and then — off the clock — checks that every
// dispatched event is in the run directory or in the tool's own drop
// accounting. With ship false the tool keeps its samples in memory.
func (w *appWorkload) profiled(seg func() error, ship bool, tr *tracer, parent spanRef, op int) (onResult, error) {
	var r onResult
	var addr, run string
	if ship {
		w.runs++
		addr, run = w.srv.addr(), fmt.Sprintf("app-%d", w.runs)
	}
	a0 := allocatedBytes()
	t0 := time.Now()
	sp := tr.start("tool.attach", parent, op)
	a, err := attachTool(w.rt, addr, run, w.durable)
	sp.end()
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	sp = tr.start("omp.segment_profiled", parent, op)
	segErr := seg()
	sp.end()
	t2 := time.Now()
	sp = tr.start("tool.detach", parent, op)
	a.detach()
	sp.end()
	t3 := time.Now()
	if segErr != nil {
		return r, segErr
	}
	if ship {
		sp = tr.start("ingest.seal_wait", parent, op)
		err = w.srv.waitComplete(run, 10*time.Second)
		sp.end()
		if err != nil {
			return r, err
		}
	}
	t4 := time.Now()
	r.alloc = allocatedBytes() - a0
	r.total, r.attach, r.segment, r.detach, r.sealWait = t4.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)

	r.counts = a.counts()
	r.landed = r.counts.Retained
	if ship {
		rc, err := checkRunDir(w.srv.runDir(run))
		if err != nil {
			return r, err
		}
		r.landed, r.bytes = rc.Samples, rc.Bytes
		os.RemoveAll(w.srv.runDir(run))
	}
	if r.landed+r.counts.DroppedSamples != r.counts.Dispatched {
		return r, fmt.Errorf("conservation: %d events dispatched, %d landed + %d accounted as dropped",
			r.counts.Dispatched, r.landed, r.counts.DroppedSamples)
	}
	return r, nil
}

// bare times the segment with no tool attached.
func (w *appWorkload) bare(tr *tracer, parent spanRef, op int) (time.Duration, error) {
	runtime.GC()
	sp := tr.start("omp.segment_bare", parent, op)
	t0 := time.Now()
	err := w.seg()
	d := time.Since(t0)
	sp.end()
	return d, err
}

// measure runs interleaved pairs until the budget is spent; which side
// of a pair runs first alternates.
func (w *appWorkload) measure(budget time.Duration, tr *tracer, out *outcome) error {
	start := time.Now()
	for i := 0; i < w.cfg.sz.minOps || time.Since(start) < budget; i++ {
		// Order alternates with every pair, tracing with every second one.
		tr := tr.onOdd(i / 2)
		pair := tr.start("bench.pair", spanRef{}, i)
		var off time.Duration
		var on onResult
		var err error
		if i%2 == 0 {
			if off, err = w.bare(tr, pair, i); err != nil {
				return err
			}
		}
		runtime.GC()
		if on, err = w.profiled(w.seg, true, tr, pair, i); err != nil {
			return err
		}
		if i%2 == 1 {
			if off, err = w.bare(tr, pair, i); err != nil {
				return err
			}
		}
		pair.end()
		out.attempted += int64(on.counts.Dispatched)
		out.failed += int64(on.counts.Dispatched - on.landed)
		w.record(out.rec, opSeries(tr), off, on)
	}
	return nil
}

func (w *appWorkload) record(rec *recorder, op string, off time.Duration, on onResult) {
	rec.add(op, "ms", ms(on.total))
	rec.add("slowdown_x", "ratio", on.total.Seconds()/off.Seconds())
	rec.add("events_per_s", "events/s", float64(on.landed)/on.total.Seconds())
	rec.add("bytes_per_event", "B", float64(on.bytes)/float64(on.landed))
	rec.add("alloc_bytes_per_event", "B", float64(on.alloc)/float64(on.landed))
	rec.add("app_on_s", "s", on.total.Seconds())
	rec.add("app_off_s", "s", off.Seconds())
	rec.add("attach_ms", "ms", ms(on.attach))
	rec.add("segment_s", "s", on.segment.Seconds())
	rec.add("detach_ms", "ms", ms(on.detach))
	rec.add("seal_wait_ms", "ms", ms(on.sealWait))
	rec.add("events_dispatched", "count", float64(on.counts.Dispatched))
	rec.add("chunks_produced", "count", float64(on.counts.Produced))
	rec.add("chunks_shipped", "count", float64(on.counts.Shipped))
	rec.add("chunks_dropped", "count", float64(on.counts.DroppedChunks))
	rec.add("chunks_relay_dropped", "count", float64(on.counts.RelayDropped))
	rec.add("chunks_spilled", "count", float64(on.counts.Spilled))
	rec.add("samples_dropped", "count", float64(on.counts.DroppedSamples))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
