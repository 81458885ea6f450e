package omp

import (
	"sync/atomic"

	"goomp/internal/collector"
)

// singleDesc is the shared descriptor of one single-construct instance.
type singleDesc struct {
	taken   atomic.Bool
	arrived atomic.Int32
}

// Single executes fn on exactly one thread of the team (whichever
// arrives first) and ends with an implicit barrier, like a single
// construct without a nowait clause. The modified OpenUH translation
// inserts runtime calls at both the beginning and the end of the
// construct so that both the single-begin and single-end events are
// captured (§IV-C.6); the executing thread's state defaults to
// THR_WORK_STATE, as the paper chooses for these constructs.
func (tc *ThreadCtx) Single(fn func()) {
	tc.singleNoWait(fn)
	tc.implicitBarrier()
}

// SingleNoWait is Single with the nowait clause.
func (tc *ThreadCtx) SingleNoWait(fn func()) {
	tc.singleNoWait(fn)
}

func (tc *ThreadCtx) singleNoWait(fn func()) {
	seq := tc.singleSeq
	tc.singleSeq++
	t := tc.team
	t.wsMu.Lock()
	sd := t.singles[seq]
	if sd == nil {
		if n := len(t.singleFree); n > 0 {
			sd, t.singleFree = t.singleFree[n-1], t.singleFree[:n-1]
		} else {
			sd = new(singleDesc)
		}
		t.singles[seq] = sd
	}
	t.wsMu.Unlock()

	if sd.taken.CompareAndSwap(false, true) {
		tc.rt.col.Event(tc.td, collector.EventThrBeginSingle)
		tc.td.SetState(collector.StateWorking)
		fn()
		// The extra runtime call at the end of the translated single
		// construct ensures the single exit event is captured.
		tc.rt.col.Event(tc.td, collector.EventThrEndSingle)
	}
	if int(sd.arrived.Add(1)) == t.size {
		// Every member is done with the descriptor: it goes back to the
		// team for the next single.
		sd.taken.Store(false)
		sd.arrived.Store(0)
		t.wsMu.Lock()
		delete(t.singles, seq)
		t.singleFree = append(t.singleFree, sd)
		t.wsMu.Unlock()
	}
}

// Master executes fn on the master thread (thread 0) only; there is no
// synchronization at entry or exit. The modified translation brackets
// the region with two runtime calls so both master events fire
// (§IV-C.6).
func (tc *ThreadCtx) Master(fn func()) {
	if tc.id != 0 {
		return
	}
	tc.rt.col.Event(tc.td, collector.EventThrBeginMaster)
	tc.td.SetState(collector.StateWorking)
	fn()
	tc.rt.col.Event(tc.td, collector.EventThrEndMaster)
}
