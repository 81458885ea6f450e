package tool

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"goomp/internal/collector"
	"goomp/internal/obs"
	"goomp/internal/perf"
	"goomp/internal/super"
)

// The hang handler: what runs when the supervisor's watchdog decides
// the process has wedged. The order matters and mirrors the detach
// contract from the fault-isolation work: render the diagnosis first
// (the wait records and collector states are still live), then
// force-detach with a bounded quiesce — the blocked threads will never
// finish their callbacks, so an unbounded wait would hang the handler
// the same way the program hung — then salvage the gap-free trace
// prefix and, beside it, the report to disk, and only then abort
// (unless a test took the report through OnHang).

// osExit is swapped out by the subprocess abort tests.
var osExit = os.Exit

// hangAbortCode is the nonzero status a supervised hung run exits
// with, so CI fails fast instead of timing out.
const hangAbortCode = 2

// hangDetachBound caps the quiesce wait during a hang detach when the
// user set no DetachTimeout: waiting forever for threads we just
// diagnosed as deadlocked would wedge the handler too.
const hangDetachBound = 2 * time.Second

// hangDetected is the supervisor's OnHang callback (on its own
// goroutine, supervision already marked fired).
func (t *Tool) hangDetected(rep *super.HangReport) {
	// Augment the wait records with the collector's own answer to
	// "what is every thread doing" — the paper's THR_*_STATE protocol,
	// asked through a fresh private queue because the hang may hold
	// the tool's other queues.
	q := t.col.NewQueue()
	for _, id := range t.liveThreadIDs() {
		st, wait, ec := collector.QueryState(q, id)
		if ec != collector.ErrOK {
			continue
		}
		rep.States = append(rep.States,
			fmt.Sprintf("collector: thread %d state=%s wait_id=%d", id, st, wait))
	}
	text := rep.Render()
	t.hangText.Store(&text)
	fmt.Fprint(os.Stderr, text)

	if t.opts.DetachTimeout == 0 {
		t.detachBound.Store(int64(hangDetachBound))
	}
	dir := t.opts.StreamDir
	if dir == "" {
		dir = t.opts.HangDir
	}
	streaming := t.stream != nil
	t.Detach()
	if dir != "" {
		t.salvage(dir, streaming, text)
	}
	if t.opts.OnHang != nil {
		t.opts.OnHang(text)
		return
	}
	osExit(hangAbortCode)
}

// salvage writes the hang diagnosis to dir as perf.HangReportName,
// beside the trace data it explains. While streaming, the trace files
// already hold the gap-free prefix (Detach flushed the residue) —
// in dir when it is StreamDir, at psxd when the network is the only
// sink; otherwise the in-memory buffers are serialized into dir now.
func (t *Tool) salvage(dir string, streaming bool, text string) {
	_ = os.MkdirAll(dir, 0o777)
	_ = os.WriteFile(filepath.Join(dir, perf.HangReportName), []byte(text), 0o666)
	if streaming {
		return
	}
	var files []*os.File
	err := t.WriteTraces(func(thread int32) (io.Writer, error) {
		f, err := os.Create(tracePath(dir, thread))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	})
	for _, f := range files {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tool: hang salvage: %v\n", err)
	}
}

// HangReport returns the rendered hang report, or "" while no hang
// has been detected.
func (t *Tool) HangReport() string {
	if p := t.hangText.Load(); p != nil {
		return *p
	}
	return ""
}

// obsWaits feeds /waits from the supervisor's live wait records.
func (t *Tool) obsWaits() obs.WaitsSnapshot {
	snap := obs.WaitsSnapshot{Enabled: true}
	for _, w := range t.sup.SnapshotWaits() {
		snap.Waits = append(snap.Waits, obs.WaitInfo{
			Who:    w.Who,
			Thread: w.Thread,
			Kind:   w.Kind,
			Res:    w.Res,
			State:  w.State,
			ForSec: w.ForSec,
			Site:   w.Site,
			Holds:  w.Holds,
		})
	}
	return snap
}
