package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// reportWorkload is the analyst's case: it reads where the others
// write. Set-up ships a seeded synthetic trace through psxd into two
// sealed run directories, one in the compact v2 encoding and one in
// the fixed-width v1 encoding; the timed operation is what
// cmd/ompreport does with the v2 directory, so only decoding and
// aggregation are at work. The same report over the v1 directory, run
// beside it, is the reference of slowdown_x.
type reportWorkload struct {
	cfg  config
	dir  string
	want reportCounts
	runs [2]reportRun // by encoding: encV1, encV2
}

type reportRun struct {
	path string // the sealed run directory
	size int64  // bytes in it
}

const reportThreads = 4

func (w *reportWorkload) setup() error {
	tr := genTrace(w.cfg.seed, w.cfg.sz.reportEvents, reportThreads)
	w.want = reportCounts{
		Samples: tr.Samples, Sites: tr.Sites, Regions: tr.Regions,
		StealSites: tr.StealSites, Threads: reportThreads,
	}
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.root, "psxd-"); err != nil {
		return err
	}
	// The input is written with as few fsyncs as psxd allows (policy
	// never, non-durable acks: only the manifests are synced), because
	// fsync in this sandbox swings severalfold and setup_s must not.
	srv, err := startPsxd(w.dir, "never")
	if err != nil {
		return err
	}
	defer srv.close()
	for _, enc := range []encoding{encV1, encV2} {
		id := fmt.Sprintf("report-v%d", enc+1)
		if err := shipTrace(srv, id, tr, enc); err != nil {
			return err
		}
		check, err := checkRunDir(srv.runDir(id))
		if err != nil {
			return err
		}
		w.runs[enc] = reportRun{srv.runDir(id), check.Bytes}
		if _, err := w.pass(enc, nil, spanRef{}, -1); err != nil {
			return err
		}
	}
	return nil
}

// shipTrace sends tr to psxd as run id, every thread's samples cut into
// chunk-sized blocks in the given encoding and the threads' blocks
// interleaved the way concurrently filling buffers seal them.
func shipTrace(srv *psxd, id string, tr *synthTrace, enc encoding) error {
	type planned struct {
		thread  int32
		samples int
		block   []byte
	}
	var plan []planned
	perThread := tr.blocks(false)
	for i, more := 0, true; more; i++ {
		more = false
		for th, blocks := range perThread {
			if i >= len(blocks) {
				continue
			}
			more = true
			block, err := encodeBlock(blocks[i], tr.Stacks, enc)
			if err != nil {
				return err
			}
			plan = append(plan, planned{int32(th), len(blocks[i]), block})
		}
	}
	rc, err := dialRaw(srv.addr(), id, false)
	if err != nil {
		return err
	}
	defer rc.close()
	run := &clientRun{id: id, chunks: len(plan), ok: make([]bool, len(plan))}
	err = closedLoop(rc, run, ingestWindow, func(k int) (int32, int, []byte) {
		return plan[k].thread, plan[k].samples, plan[k].block
	})
	if err == nil {
		err = closeRun(rc, len(plan), len(tr.Threads))
	}
	if err == nil {
		err = srv.waitComplete(id, 10*time.Second)
	}
	if err == nil && run.acks[ackOK] != len(plan) {
		err = fmt.Errorf("report set-up: %d of %d chunks acknowledged", run.acks[ackOK], len(plan))
	}
	return err
}

func (w *reportWorkload) teardown() { os.RemoveAll(w.dir) }

// pass runs one report over the directory in the given encoding and
// checks what it found against what the generator wrote. It starts
// from a collected heap, so that passes do not pay for each other's
// garbage.
func (w *reportWorkload) pass(enc encoding, tr *tracer, parent spanRef, op int) (reportTimes, error) {
	runtime.GC()
	a0 := allocatedBytes()
	got, rt, err := reportPass(w.runs[enc].path, tr, parent, op)
	rt.alloc = allocatedBytes() - a0
	if err == nil && got != w.want {
		err = fmt.Errorf("report found %+v, generator wrote %+v", got, w.want)
	}
	return rt, err
}

// measure runs pairs of reports, over the v2 and the v1 directory,
// alternating which goes first.
func (w *reportWorkload) measure(budget time.Duration, tr *tracer, out *outcome) error {
	start := time.Now()
	events := float64(w.want.Samples)
	for i := 0; i < w.cfg.sz.minOps || time.Since(start) < budget; i++ {
		tr := tr.onOdd(i / 2)
		pair := tr.start("bench.pair", spanRef{}, i)
		var rt [2]reportTimes // by encoding
		for j := 0; j < 2; j++ {
			enc := encoding((i + j) % 2)
			sp := tr.start([]string{"bench.report_v1", "bench.report_v2"}[enc], pair, i)
			var err error
			rt[enc], err = w.pass(enc, tr, sp, i)
			sp.end()
			out.attempted += int64(w.want.Samples)
			if err != nil {
				out.failed += int64(w.want.Samples)
				return err
			}
		}
		pair.end()
		v1, v2 := rt[encV1], rt[encV2]
		out.rec.add(opSeries(tr), "ms", ms(v2.total))
		out.rec.add("events_per_s", "events/s", events/v2.total.Seconds())
		out.rec.add("slowdown_x", "ratio", v2.total.Seconds()/v1.total.Seconds())
		out.rec.add("bytes_per_event", "B", float64(w.runs[encV2].size)/events)
		out.rec.add("alloc_bytes_per_event", "B", float64(v2.alloc)/events)
		out.rec.add("report_events_per_s", "events/s", events/v2.total.Seconds())
		out.rec.add("decode_ms", "ms", ms(v2.decode))
		out.rec.add("report_v1_ms", "ms", ms(v1.total))
	}
	return nil
}
