package tool_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// storedJoins reads a memory-only tool's traces back and counts the
// join samples in them, and how many of those carry a stack.
func storedJoins(t *testing.T, tl *Tool) (joins, stacked int) {
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
				if buf.Stack(smp.StackID) != nil {
					stacked++
				}
			}
		}
	}
	return joins, stacked
}

const poisonPC = ^uintptr(0)

// poisonPath overwrites the scratch the runtime would walk a path
// into; walkedPastSite reports whether anything has been written there
// since.
func poisonPath(td *collector.ThreadInfo) {
	s := td.RegionPath().Scratch()
	for i := range s {
		s[i] = poisonPC
	}
}

func walkedPastSite(td *collector.ThreadInfo) bool {
	for _, pc := range td.RegionPath().Scratch() {
		if pc != poisonPC {
			return true
		}
	}
	return false
}

// TestJoinRouteAcrossAttachAndDetach: a region that was entered before
// the tool attached joins without a path and is unwound in the
// callback; every region entered after it is recorded against the path
// the runtime walked; and once the tool is gone the runtime is back to
// its one-frame walk.
func TestJoinRouteAcrossAttachAndDetach(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	_, mp := rt.MasterDescriptors()

	var tl *Tool
	rt.Parallel(func(tc *omp.ThreadCtx) {
		if tc.ThreadNum() == 0 {
			var err error
			if tl, err = AttachRuntime(rt, FullMeasurement()); err != nil {
				t.Error(err)
			}
		}
	})
	if tl == nil {
		t.FailNow()
	}
	if rep := tl.Report(); rep.JoinPathsSupplied != 0 || rep.JoinStacksUnwound != 1 {
		t.Fatalf("region entered before attach: %d supplied, %d unwound; want 0, 1",
			rep.JoinPathsSupplied, rep.JoinStacksUnwound)
	}
	for i := 0; i < 3; i++ {
		rt.Parallel(func(tc *omp.ThreadCtx) {})
	}
	tl.Detach()
	rep := tl.Report()
	if rep.JoinPathsSupplied != 3 || rep.JoinStacksUnwound != 1 {
		t.Errorf("after three more regions: %d supplied, %d unwound; want 3, 1",
			rep.JoinPathsSupplied, rep.JoinStacksUnwound)
	}
	if joins, stacked := storedJoins(t, tl); joins != 4 || stacked != 4 {
		t.Errorf("%d joins stored, %d with a stack; want 4, 4", joins, stacked)
	}
	var text bytes.Buffer
	rep.WriteTo(&text)
	if want := "join stacks: 3 from the region's entry walk, 1 unwound at the join"; !bytes.Contains(text.Bytes(), []byte(want)) {
		t.Errorf("report does not say %q:\n%s", want, text.String())
	}

	if rt.Collector().RegionPaths() {
		t.Error("the request outlived the tool")
	}
	poisonPath(mp)
	rt.Parallel(func(tc *omp.ThreadCtx) {})
	if mp.RegionPath().PCs() != nil || walkedPastSite(mp) {
		t.Error("the runtime still walks region paths after Detach")
	}
}

// TestOnlyAToolThatUsesEveryPathAsks: the walk is asked for by a tool
// that will record every join against it, and by no other.
func TestOnlyAToolThatUsesEveryPathAsks(t *testing.T) {
	selective := FullMeasurement()
	selective.MaxSamplesPerSite = 30
	noStacks := Options{Measure: true}
	noJoin := FullMeasurement()
	noJoin.Events = []collector.Event{collector.EventFork, collector.EventThrBeginIBar}
	for _, tc := range []struct {
		name string
		opts Options
		asks bool
	}{
		{"full measurement", FullMeasurement(), true},
		{"MaxSamplesPerSite", selective, false},
		{"callbacks only", CallbacksOnly(), false},
		{"no join stacks", noStacks, false},
		{"join not registered", noJoin, false},
	} {
		rt := omp.New(omp.Config{NumThreads: 2})
		_, mp := rt.MasterDescriptors()
		tl, err := AttachRuntime(rt, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.Collector().RegionPaths(); got != tc.asks {
			t.Errorf("%s: asks for region paths = %v, want %v", tc.name, got, tc.asks)
		}
		poisonPath(mp)
		for i := 0; i < 10; i++ {
			rt.Parallel(func(*omp.ThreadCtx) {})
		}
		if walked := walkedPastSite(mp); walked != tc.asks {
			t.Errorf("%s: runtime walked past the site = %v, want %v", tc.name, walked, tc.asks)
		}
		tl.Detach()
		rep := tl.Report()
		joins, stacked := storedJoins(t, tl)
		switch {
		case tc.asks:
			if rep.JoinPathsSupplied != 10 || rep.JoinStacksUnwound != 0 {
				t.Errorf("%s: %d supplied, %d unwound; want 10, 0", tc.name, rep.JoinPathsSupplied, rep.JoinStacksUnwound)
			}
		case tc.opts.MaxSamplesPerSite > 0:
			// The joins it does store it unwinds itself, as before.
			if joins == 0 || joins == 10 || stacked != joins ||
				rep.JoinPathsSupplied != 0 || rep.JoinStacksUnwound != uint64(joins) {
				t.Errorf("%s: %d joins stored (%d stacked), %d supplied, %d unwound",
					tc.name, joins, stacked, rep.JoinPathsSupplied, rep.JoinStacksUnwound)
			}
		default:
			if stacked != 0 || rep.JoinPathsSupplied != 0 || rep.JoinStacksUnwound != 0 {
				t.Errorf("%s: %d stacked joins, %d supplied, %d unwound; want none",
					tc.name, stacked, rep.JoinPathsSupplied, rep.JoinStacksUnwound)
			}
		}
		rt.Close()
	}
}

// TestJoinRoutesWhileAttachingAndDetaching: tools come and go while
// the application forks and joins without a pause. Whatever a region's
// entry and its join each saw of the tool, every join the tool was
// dispatched is stored once, with a stack, by one route or the other.
// Run with -race at several widths (make check).
func TestJoinRoutesWhileAttachingAndDetaching(t *testing.T) {
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

	var supplied, unwound uint64
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
		rep := tl.Report()
		joins, stacked := storedJoins(t, tl)
		if rep.JoinPathsSupplied+rep.JoinStacksUnwound != dispatched || uint64(joins) != dispatched || stacked != joins {
			t.Fatalf("round %d: %d joins dispatched; %d stored, %d with a stack; %d supplied + %d unwound",
				round, dispatched, joins, stacked, rep.JoinPathsSupplied, rep.JoinStacksUnwound)
		}
		supplied += rep.JoinPathsSupplied
		unwound += rep.JoinStacksUnwound
	}
	if supplied == 0 {
		t.Errorf("no join in any round was recorded against an entry path (%d unwound)", unwound)
	}
	t.Logf("%d joins from entry paths, %d unwound at the join", supplied, unwound)
}
