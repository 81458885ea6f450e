package omp

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"goomp/internal/collector"
)

func expectRegionPanic(t *testing.T, wantSub string, fn func()) (rp *RegionPanic) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatal("no panic propagated to the master")
		}
		var ok bool
		if rp, ok = r.(*RegionPanic); !ok {
			t.Fatalf("panic value %T, want *RegionPanic", r)
		}
		if wantSub != "" && !strings.Contains(rp.Error(), wantSub) {
			t.Errorf("panic message %q missing %q", rp.Error(), wantSub)
		}
	}()
	fn()
	return nil
}

func TestPanicOnMasterPropagates(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	expectRegionPanic(t, "boom", func() {
		r.Parallel(func(tc *ThreadCtx) {
			if tc.ThreadNum() == 0 {
				panic("boom")
			}
		})
	})
	// The runtime must remain usable afterwards.
	var ok atomic.Int32
	r.Parallel(func(tc *ThreadCtx) { ok.Add(1) })
	if ok.Load() != 4 {
		t.Errorf("region after panic ran %d threads, want 4", ok.Load())
	}
}

func TestPanicOnSlavePropagatesToMaster(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4})
	expectRegionPanic(t, "thread 2", func() {
		r.Parallel(func(tc *ThreadCtx) {
			if tc.ThreadNum() == 2 {
				panic("slave exploded")
			}
		})
	})
	var ok atomic.Int32
	r.Parallel(func(tc *ThreadCtx) { ok.Add(1) })
	if ok.Load() != 4 {
		t.Errorf("region after slave panic ran %d threads", ok.Load())
	}
}

func TestPanicMidWorksharingDoesNotDeadlock(t *testing.T) {
	// A thread panicking before a loop's implicit barrier must not
	// leave the rest of the team stuck in that barrier.
	r := newRT(t, Config{NumThreads: 4})
	expectRegionPanic(t, "", func() {
		r.Parallel(func(tc *ThreadCtx) {
			tc.For(16, func(i int) {
				if tc.ThreadNum() == 1 && i >= 4 {
					panic("mid-loop")
				}
			})
			tc.Barrier()
			tc.For(16, func(int) {})
		})
	})
	var ok atomic.Int32
	r.Parallel(func(tc *ThreadCtx) { ok.Add(1) })
	if ok.Load() != 4 {
		t.Errorf("runtime unusable after mid-loop panic: %d", ok.Load())
	}
}

func TestPanicInTaskPropagates(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	expectRegionPanic(t, "task boom", func() {
		r.Parallel(func(tc *ThreadCtx) {
			tc.Master(func() {
				tc.Task(func(*ThreadCtx) { panic("task boom") })
				tc.Taskwait() // must not deadlock on the dead child
			})
		})
	})
}

func TestPanicInSpinBarrierRegion(t *testing.T) {
	r := newRT(t, Config{NumThreads: 4, SpinBarrier: true})
	expectRegionPanic(t, "", func() {
		r.Parallel(func(tc *ThreadCtx) {
			if tc.ThreadNum() == 3 {
				panic("spin")
			}
			tc.Barrier()
		})
	})
}

func TestPanicInNestedRegion(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2, Nested: true})
	expectRegionPanic(t, "", func() {
		r.Parallel(func(tc *ThreadCtx) {
			if tc.ThreadNum() == 0 {
				tc.Parallel(2, func(in *ThreadCtx) {
					if in.ThreadNum() == 1 {
						panic("nested slave")
					}
				})
			}
		})
	})
}

// TestPanicInSerializedNestedRegion: a panic in a serialized nested
// region leaves through the same bracket as a true-nested one. The
// nested team's closing barrier still runs, the encountering thread's
// own closing barrier is back in the outer region, and the panic comes
// out of the nested region as a *RegionPanic.
func TestPanicInSerializedNestedRegion(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2}) // Nested: false
	var mu sync.Mutex
	var ibars []uint64 // thread 1's implicit barriers, by region
	q := r.Collector().NewQueue()
	collector.Control(q, collector.ReqStart)
	h := r.Collector().NewCallbackHandle(func(e collector.Event, ti *collector.ThreadInfo) {
		if ti.ID == 1 {
			mu.Lock()
			ibars = append(ibars, ti.Team().RegionID)
			mu.Unlock()
		}
	})
	collector.Register(q, collector.EventThrBeginIBar, h)

	var outer, inner uint64
	rp := expectRegionPanic(t, "thread 1", func() {
		r.Parallel(func(tc *ThreadCtx) {
			if tc.ThreadNum() == 1 {
				outer = tc.RegionID()
				tc.Parallel(2, func(in *ThreadCtx) {
					inner = in.RegionID()
					panic("serialized")
				})
			}
		})
	})
	if nested, ok := rp.Value.(*RegionPanic); !ok || nested.Value != "serialized" {
		t.Errorf("the nested region raised %#v, want a *RegionPanic", rp.Value)
	}
	// The panic cancelled the region's barrier, so the master did not
	// wait for thread 1 to leave it; joining the next region does.
	r.Parallel(func(*ThreadCtx) {})
	mu.Lock()
	defer mu.Unlock()
	if len(ibars) != 3 || ibars[0] != inner || ibars[1] != outer {
		t.Errorf("thread 1's implicit barriers were in regions %v, want [%d %d] (nested, outer) and the next region's", ibars, inner, outer)
	}
}

func TestRegionPanicError(t *testing.T) {
	p := &RegionPanic{Thread: 3, Value: "v"}
	if !strings.Contains(p.Error(), "thread 3") || !strings.Contains(p.Error(), "v") {
		t.Errorf("message %q", p.Error())
	}
}
