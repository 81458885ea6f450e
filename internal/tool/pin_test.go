package tool_test

import (
	"sync"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// TestLateCallbackLeavesNoPin: a callback that outlives Detach's
// quiesce wait reaches the descriptor's first-event pin after Detach
// has unpinned. It must pin nothing: a buffer left on the descriptor
// would take the next tool's events.
func TestLateCallbackLeavesNoPin(t *testing.T) {
	col := collector.New()
	ti := collector.NewThreadInfo(5)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	tl, err := AttachCollector(col, Options{
		Measure:       true,
		Events:        []collector.Event{collector.EventJoin},
		DetachTimeout: 20 * time.Millisecond,
		WrapCallback: func(cb collector.Callback) collector.Callback {
			return func(e collector.Event, ti *collector.ThreadInfo) {
				once.Do(func() { close(entered); <-release })
				cb(e, ti)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		col.Event(ti, collector.EventJoin)
	}()
	<-entered
	tl.Detach()
	close(release)
	<-done
	if b := ti.TraceBuffer(); b != nil {
		t.Fatalf("a detached tool's buffer (%d samples) is still pinned", b.Len())
	}
}

// TestDetachUnpinsEveryDescriptor: every descriptor a tool pinned —
// the master's two, the workers' and the transient ones of true-nested
// teams — holds no buffer once the tool has detached, and the next
// tool's events never reach the first tool's buffers.
func TestDetachUnpinsEveryDescriptor(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2, Nested: true})
	defer rt.Close()
	col := rt.Collector()
	var mu sync.Mutex
	seen := make(map[*collector.ThreadInfo]bool)
	capture := func(tc *omp.ThreadCtx) {
		mu.Lock()
		seen[tc.Info()] = true
		mu.Unlock()
	}
	regions := func() {
		for i := 0; i < 4; i++ {
			rt.Parallel(capture)
			rt.Parallel(func(tc *omp.ThreadCtx) {
				capture(tc)
				tc.Parallel(2, capture)
			})
		}
	}

	first, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	regions()
	held := make(map[*perf.TraceBuffer]int)
	for ti := range seen {
		b := ti.TraceBuffer()
		if b == nil {
			t.Fatalf("thread %d's descriptor recorded events but holds no buffer", ti.ID)
		}
		held[b] = 0
	}
	first.Detach()
	for b := range held {
		held[b] = b.Len()
	}

	serial, parallel := rt.MasterDescriptors()
	all := []*collector.ThreadInfo{serial, parallel}
	all = append(all, col.Threads()...)
	for ti := range seen {
		all = append(all, ti)
	}
	for _, ti := range all {
		if b := ti.TraceBuffer(); b != nil {
			t.Errorf("thread %d's descriptor still holds a buffer (%d samples) after Detach", ti.ID, b.Len())
		}
	}

	second, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	regions()
	second.Detach()
	for b, n := range held {
		if b.Len() != n {
			t.Errorf("a detached tool's buffer grew from %d to %d samples under the next tool", n, b.Len())
		}
	}
}
