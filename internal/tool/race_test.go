package tool_test

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// TestDetachConcurrent is the regression test for the Detach race:
// many goroutines detaching (and reading StreamError) at once must
// tear the tool down exactly once, with no double-closed files and no
// torn error reads. Run with -race.
func TestDetachConcurrent(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, Options{
		Measure:    true,
		JoinStacks: true,
		StreamDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl.Detach()
			if err := tl.StreamError(); err != nil {
				t.Errorf("stream error after detach: %v", err)
			}
		}()
	}
	wg.Wait()
	// Events stay off afterwards and the report is still readable: the
	// drained streaming buffers hold no residue and post-detach regions
	// record nothing.
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	if rep := tl.Report(); rep.Samples != 0 {
		t.Errorf("samples after drained detach = %d, want 0", rep.Samples)
	}
}

// TestJoinStackRetentionBounded is the regression test for the
// join-stack leak: with a small buffer limit, stacks interned for
// samples that the limit then rejects must not accumulate. Before the
// fix every join interned its callstack whether or not the sample was
// recorded, so stack retention grew with region count even at the
// limit.
func TestJoinStackRetentionBounded(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 1})
	defer rt.Close()
	const limit = 6
	tl, err := AttachRuntime(rt, Options{
		Measure:     true,
		JoinStacks:  true,
		BufferLimit: limit,
		BufferCap:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()

	const regions = 50
	for i := 0; i < regions; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}

	streams := make(map[int32]*bytes.Buffer)
	if err := tl.WriteTraces(func(thread int32) (io.Writer, error) {
		b := new(bytes.Buffer)
		streams[thread] = b
		return b, nil
	}); err != nil {
		t.Fatal(err)
	}
	samples, stacks := 0, 0
	var dropped uint64
	for id, s := range streams {
		b, err := perf.ReadTraceStream(bytes.NewReader(s.Bytes()))
		if err != nil {
			t.Fatalf("thread %d: %v", id, err)
		}
		samples += b.Len()
		stacks += b.NumStacks()
		dropped += b.Dropped()
	}
	// The limit covers stacks too: retained samples + stacks never
	// exceed it, however many regions ran.
	if samples+stacks > limit {
		t.Errorf("retained %d samples + %d stacks > limit %d", samples, stacks, limit)
	}
	if stacks >= regions/2 {
		t.Errorf("%d stacks retained over %d regions: join stacks leak past the limit", stacks, regions)
	}
	if dropped == 0 {
		t.Error("no drops recorded despite exceeding the limit")
	}
}

// storedJoins reads a memory-only tool's traces back and counts the
// join samples in them, and how many of those carry a stack that
// starts at the join's region site.
func storedJoins(t *testing.T, tl *Tool) (joins, atSite int) {
	t.Helper()
	var streams []*bytes.Buffer
	if err := tl.WriteTraces(func(int32) (io.Writer, error) {
		streams = append(streams, new(bytes.Buffer))
		return streams[len(streams)-1], nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		buf, err := perf.ReadTraceStream(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range buf.Samples() {
			if smp.Event == int32(collector.EventJoin) {
				joins++
				if st := buf.Stack(smp.StackID); len(st) > 0 && st[0] == uintptr(smp.Site) {
					atSite++
				}
			}
		}
	}
	return joins, atSite
}

// TestEveryJoinStoredWhileAttachingAndDetaching: tools come and go
// while the application forks and joins without a pause. Whatever a
// region's entry and its join each saw of the tool, every join the
// tool was dispatched is stored once, with its path from the region's
// site. Run with -race at several widths (make check).
func TestEveryJoinStoredWhileAttachingAndDetaching(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	col := rt.Collector()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { // the application
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Parallel(func(tc *omp.ThreadCtx) { tc.For(4, func(int) {}) })
		}
	}()
	defer func() { close(stop); <-done }()

	for round := 0; round < 12; round++ {
		before := col.EventCount(collector.EventJoin)
		tl, err := AttachRuntime(rt, FullMeasurement())
		if err != nil {
			t.Fatal(err)
		}
		want := before + uint64(1+round%5)
		for deadline := time.Now().Add(10 * time.Second); col.EventCount(collector.EventJoin) < want; {
			if time.Now().After(deadline) {
				t.Fatal("the application stopped joining")
			}
			time.Sleep(50 * time.Microsecond)
		}
		tl.Detach()
		dispatched := col.EventCount(collector.EventJoin) - before
		if joins, atSite := storedJoins(t, tl); uint64(joins) != dispatched || atSite != joins {
			t.Fatalf("round %d: %d joins dispatched; %d stored, %d with a path from their site",
				round, dispatched, joins, atSite)
		}
	}
}

// TestJoinStacksFollowTheOptions: a tool that records join stacks
// stores every join it stores with its path from the region's site, a
// selective one as many as its budget lets through, and a tool without
// join stacks, without measurement or without the join event none.
func TestJoinStacksFollowTheOptions(t *testing.T) {
	selective := FullMeasurement()
	selective.MaxSamplesPerSite = 30
	noStacks := Options{Measure: true}
	noJoin := FullMeasurement()
	noJoin.Events = []collector.Event{collector.EventFork, collector.EventThrBeginIBar}
	for _, tc := range []struct {
		name        string
		opts        Options
		joins, some bool // every join stored, some of them stored
	}{
		{"full measurement", FullMeasurement(), true, true},
		{"MaxSamplesPerSite", selective, false, true},
		{"callbacks only", CallbacksOnly(), false, false},
		{"no join stacks", noStacks, true, false},
		{"join not registered", noJoin, false, false},
	} {
		rt := omp.New(omp.Config{NumThreads: 2})
		tl, err := AttachRuntime(rt, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			rt.Parallel(func(*omp.ThreadCtx) {})
		}
		tl.Detach()
		joins, atSite := storedJoins(t, tl)
		switch {
		case tc.joins && tc.some:
			if joins != 10 || atSite != 10 {
				t.Errorf("%s: %d joins stored, %d with a path from their site; want 10, 10", tc.name, joins, atSite)
			}
		case tc.some:
			if joins == 0 || joins == 10 || atSite != joins {
				t.Errorf("%s: %d joins stored, %d with a path from their site", tc.name, joins, atSite)
			}
		case tc.joins:
			if joins != 10 || atSite != 0 {
				t.Errorf("%s: %d joins stored, %d with a stack; want 10, 0", tc.name, joins, atSite)
			}
		default:
			if atSite != 0 {
				t.Errorf("%s: %d joins stored with a stack, want none", tc.name, atSite)
			}
		}
		rt.Close()
	}
}
