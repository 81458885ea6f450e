package perf

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCallstackAndResolve(t *testing.T) {
	pcs := Callstack(0, 32)
	if len(pcs) == 0 {
		t.Fatal("empty callstack")
	}
	frames := Resolve(pcs)
	if len(frames) == 0 {
		t.Fatal("no frames resolved")
	}
	// The innermost frame must be this test function.
	if !strings.Contains(frames[0].Func, "TestCallstackAndResolve") {
		t.Errorf("leaf frame = %q, want this test", frames[0].Func)
	}
	if frames[0].File == "" || frames[0].Line == 0 {
		t.Errorf("leaf frame missing source mapping: %+v", frames[0])
	}
}

func TestCallstackSkip(t *testing.T) {
	var inner, skipped []uintptr
	func() {
		inner = Callstack(0, 32)
		skipped = Callstack(1, 32)
	}()
	if len(skipped) >= len(inner) {
		t.Errorf("skip=1 stack (%d frames) not shorter than skip=0 (%d)",
			len(skipped), len(inner))
	}
}

func TestResolveEmpty(t *testing.T) {
	if got := Resolve(nil); got != nil {
		t.Errorf("Resolve(nil) = %v, want nil", got)
	}
}

func TestUserModelStripsImplementationFrames(t *testing.T) {
	frames := []Frame{
		{Func: "goomp/internal/perf.Callstack"},
		{Func: "goomp/internal/omp.(*ThreadCtx).implicitBarrier"},
		{Func: "main.computeSum", File: "main.go", Line: 10},
		{Func: "goomp/internal/omp.(*RT).parallel"},
		{Func: "main.main", File: "main.go", Line: 30},
		{Func: "runtime.main"},
	}
	s := NewStripper()
	um := s.UserModel(frames)
	if len(um) != 2 {
		t.Fatalf("user model has %d frames, want 2: %+v", len(um), um)
	}
	if um[0].Func != "main.computeSum" || um[1].Func != "main.main" {
		t.Errorf("user model frames = %+v", um)
	}
	leaf, ok := s.Leaf(frames)
	if !ok || leaf.Func != "main.computeSum" {
		t.Errorf("leaf = %+v, ok=%v", leaf, ok)
	}
}

func TestUserModelExtraPrefixes(t *testing.T) {
	s := NewStripper("mylib.")
	frames := []Frame{{Func: "mylib.helper"}, {Func: "app.work"}}
	um := s.UserModel(frames)
	if len(um) != 1 || um[0].Func != "app.work" {
		t.Errorf("user model = %+v", um)
	}
}

func TestLeafNoUserFrames(t *testing.T) {
	s := NewStripper()
	if _, ok := s.Leaf([]Frame{{Func: "runtime.goexit"}}); ok {
		t.Error("leaf found in pure-implementation stack")
	}
}

func TestCyclesMonotonic(t *testing.T) {
	prev := Cycles()
	for i := 0; i < 1000; i++ {
		now := Cycles()
		if now < prev {
			t.Fatalf("counter went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

func TestTimeHelper(t *testing.T) {
	d := Time(func() { time.Sleep(time.Millisecond) })
	if d < 500*time.Microsecond {
		t.Errorf("Time = %v, want >= 0.5ms", d)
	}
}

func TestTraceBufferAppendAndLimit(t *testing.T) {
	b := NewTraceBuffer(4, 3)
	for i := 0; i < 5; i++ {
		b.Append(Sample{Time: int64(i), Thread: 0, Event: -1, State: -1, StackID: NoStack})
	}
	if len(b.Samples()) != 3 {
		t.Errorf("samples = %d, want 3 (limit)", len(b.Samples()))
	}
	if b.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", b.Dropped())
	}
	b.Reset()
	if len(b.Samples()) != 0 || b.Dropped() != 0 || b.NumStacks() != 0 {
		t.Error("reset did not clear buffer")
	}
}

func TestTraceBufferStackInterning(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	pcs := []uintptr{1, 2, 3}
	b.AppendStacked(Sample{}, pcs)
	id := b.Samples()[0].StackID
	pcs[0] = 99 // the buffer must have copied
	got := b.Stack(id)
	if len(got) != 3 || got[0] != 1 {
		t.Errorf("interned stack = %v", got)
	}
	if b.Stack(-1) != nil || b.Stack(42) != nil {
		t.Error("out-of-range stack IDs must return nil")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	b.AppendStacked(Sample{Time: 5, Thread: 1, Event: 0, State: 3, Region: 7}, []uintptr{0x1000, 0x2000})
	b.Append(Sample{Time: 9, Thread: 2, Event: 1, State: -1, Region: 7, StackID: NoStack})
	b.dropped.Store(4)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples()) != 2 {
		t.Fatalf("read %d samples, want 2", len(got.Samples()))
	}
	if got.Samples()[0] != b.Samples()[0] || got.Samples()[1] != b.Samples()[1] {
		t.Errorf("samples differ: %+v vs %+v", got.Samples(), b.Samples())
	}
	if st := got.Stack(0); len(st) != 2 || st[0] != 0x1000 || st[1] != 0x2000 {
		t.Errorf("stack = %v", st)
	}
	if got.Dropped() != 4 {
		t.Errorf("dropped = %d, want 4", got.Dropped())
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewTraceBuffer(0, 0)
		stacks := make([][]uintptr, n%8)
		for i := range stacks {
			depth := rng.Intn(20)
			stacks[i] = make([]uintptr, depth)
			for j := range stacks[i] {
				stacks[i][j] = uintptr(rng.Uint64())
			}
		}
		for i := 0; i < int(n); i++ {
			s := Sample{
				Time:    rng.Int63(),
				Thread:  int32(rng.Intn(64)),
				Event:   int32(rng.Intn(30)) - 1,
				State:   int32(rng.Intn(12)) - 1,
				Region:  rng.Uint64(),
				StackID: NoStack,
			}
			if len(stacks) > 0 && rng.Intn(2) == 0 {
				// Stored once per chunk, so samples drawing the same
				// stack share its ID in the written block.
				b.appendPath(s, stacks[rng.Intn(len(stacks))])
			} else {
				b.Append(s)
			}
		}
		if b.NumStacks() > len(stacks) {
			return false
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, b); err != nil {
			return false
		}
		got, err := ReadTraceStream(&buf)
		if err != nil {
			return false
		}
		gs, bs := got.Samples(), b.Samples()
		if len(gs) != len(bs) {
			return false
		}
		// The reader numbers stacks its own way, one ID per distinct
		// path (two stacks drawn empty are one): each sample must name
		// the frames it was recorded with, and every path be kept once.
		for i := range bs {
			g, w := gs[i], bs[i]
			if (g.StackID == NoStack) != (w.StackID == NoStack) || !slices.Equal(got.Stack(g.StackID), b.Stack(w.StackID)) {
				return false
			}
			g.StackID, w.StackID = 0, 0
			if g != w {
				return false
			}
		}
		return got.NumStacks() == len(paths(got)) && maps.Equal(paths(got), paths(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTraceStream(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Error("garbage accepted")
	}
	// Correct magic, truncated afterwards.
	if _, err := ReadTraceStream(bytes.NewReader([]byte("PSXT"))); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestStateHistogram(t *testing.T) {
	h := NewStateHistogram()
	h.Observe(0, 1)
	h.Observe(0, 1)
	h.Observe(0, 2)
	h.Observe(1, 3)
	if h.Total(0) != 3 || h.Total(1) != 1 || h.Total(9) != 0 {
		t.Errorf("totals wrong: %d %d %d", h.Total(0), h.Total(1), h.Total(9))
	}
	if f := h.Fraction(0, 1); f < 0.66 || f > 0.67 {
		t.Errorf("fraction = %v, want 2/3", f)
	}
	if h.Fraction(9, 1) != 0 {
		t.Error("fraction of unobserved thread should be 0")
	}
	other := NewStateHistogram()
	other.Observe(0, 1)
	h.Merge(other)
	if h.Counts[0][1] != 3 {
		t.Errorf("merged count = %d, want 3", h.Counts[0][1])
	}
}

func TestRegionProfile(t *testing.T) {
	samples := []Sample{
		{Time: 10, Event: 0, Site: 0xA},             // fork
		{Time: 30, Event: 1, Region: 1, Site: 0xA},  // join: 20ns
		{Time: 100, Event: 0, Site: 0xB},            // fork
		{Time: 160, Event: 1, Region: 2, Site: 0xB}, // join: 60ns
		{Time: 200, Event: 0, Site: 0xB},            // fork
		{Time: 240, Event: 1, Region: 3, Site: 0xB}, // join: 40ns
		{Time: 300, Event: 1, Region: 4, Site: 0xC}, // join without fork: ignored
		{Time: 400, Event: 5, Region: 9, State: 1},  // unrelated event
	}
	// Region IDs are per invocation; the profile groups by site.
	stats := RegionProfileBySite(samples, 0, 1)
	if len(stats) != 2 {
		t.Fatalf("sites = %d, want 2", len(stats))
	}
	b, a := stats[0], stats[1] // descending total time
	if a.Site != 0xA || a.Calls != 1 || a.TotalTime != 20 {
		t.Errorf("site A stats = %+v", a)
	}
	if b.Site != 0xB || b.Calls != 2 || b.TotalTime != 100 ||
		b.MinTime != 40 || b.MaxTime != 60 {
		t.Errorf("site B stats = %+v", b)
	}
}

func TestRegionProfileNested(t *testing.T) {
	// An outer region forks at 10; a nested inner region forks at 20 and
	// joins at 50 (30ns); the outer joins at 100 (90ns). A single
	// lastFork pairing would attribute 100-20=80ns to the outer region
	// and drop the inner join entirely.
	samples := []Sample{
		{Time: 10, Event: 0, Site: 0xA},
		{Time: 20, Event: 0, Site: 0xB},
		{Time: 50, Event: 1, Region: 2, Site: 0xB},  // inner join: 30ns
		{Time: 100, Event: 1, Region: 1, Site: 0xA}, // outer join: 90ns
	}
	bySite := RegionProfileBySite(samples, 0, 1)
	if len(bySite) != 2 {
		t.Fatalf("sites = %d, want 2", len(bySite))
	}
	// Sorted by descending total time: site A (90) before site B (30).
	if bySite[0].Site != 0xA || bySite[0].TotalTime != 90 {
		t.Errorf("site A stats = %+v, want 90ns", bySite[0])
	}
	if bySite[1].Site != 0xB || bySite[1].TotalTime != 30 {
		t.Errorf("site B stats = %+v, want 30ns", bySite[1])
	}
}

func TestForkJoinDurationsInterleaved(t *testing.T) {
	// Two threads forking nested parallel regions concurrently: their
	// samples interleave in time, but pairing is per thread, so thread
	// 1's join must not consume thread 2's later fork.
	samples := []Sample{
		{Time: 10, Event: 0, Thread: 1},
		{Time: 15, Event: 0, Thread: 2},
		{Time: 40, Event: 1, Thread: 1, Region: 1}, // 40-10 = 30ns
		{Time: 65, Event: 1, Thread: 2, Region: 2}, // 65-15 = 50ns
		{Time: 70, Event: 1, Thread: 3, Region: 3}, // no fork on thread 3: ignored
	}
	got := make(map[uint64]time.Duration)
	ForkJoinDurations(samples, 0, 1, func(s *Sample, d time.Duration) {
		got[s.Region] = d
	})
	if len(got) != 2 || got[1] != 30 || got[2] != 50 {
		t.Errorf("durations = %v, want region1=30ns region2=50ns", got)
	}
}

func TestSiteProfiles(t *testing.T) {
	b := NewTraceBuffer(0, 0)
	// Real stacks from this test: leaves must resolve to this function.
	// Capture from one line so both stacks share a leaf site. A site
	// counts the samples that reference its stacks, as the tool records
	// them: every stack with its join sample.
	for i := 0; i < 2; i++ {
		b.AppendStacked(Sample{Time: int64(i)}, Callstack(0, 16))
	}
	s := NewStripper()
	// The testing prefix is stripped by default, so retain this test's
	// frames by removing the testing prefix from a copy.
	s2 := &Stripper{Prefixes: []string{"runtime.", "goomp/internal/perf.Callstack"}}
	sites := SiteProfiles(b, s2)
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
	if sites[0].Count != 2 {
		t.Errorf("top site count = %d, want 2", sites[0].Count)
	}
	if !strings.Contains(sites[0].Leaf.Func, "TestSiteProfiles") {
		t.Errorf("top site leaf = %q", sites[0].Leaf.Func)
	}
	_ = s
}

func TestWriteRegionTable(t *testing.T) {
	var buf bytes.Buffer
	WriteRegionSiteTable(&buf, []RegionSiteStats{
		{Site: 0x2a, Calls: 2, TotalTime: 100, MinTime: 40, MaxTime: 60},
	}, nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "calls") {
		t.Fatalf("table = %q, want a header and one row", lines)
	}
	if f := strings.Fields(lines[1]); len(f) != 4 || f[0] != "0x2a" || f[1] != "2" || f[3] != "50ns" {
		t.Errorf("row = %q, want site 0x2a, 2 calls, mean 50ns", lines[1])
	}
}
