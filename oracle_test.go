// The differential oracle for a join's stored call path: the tool
// walks each join's stack by frame pointer and stores it from the
// region's call site on, and this file checks — at every join of every
// program it runs, against runtime.Callers walked at the same point —
// that a profile cannot tell the stored path from the full unwind.
package goomp_test

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"goomp/internal/collector"
	"goomp/internal/epcc"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

// pathOracle sits in front of the tool's callback. At each join it is
// where the tool walks from, so it unwinds there with runtime.Callers,
// the reference, and keeps the reference as a report shows it:
// resolved and stripped to the user model. Its own frame is
// measurement infrastructure like the tool's. At each fork it asks the
// collector, as a tool would, for the region's ID and parent.
type pathOracle struct {
	strip *perf.Stripper
	q     *collector.Queue

	mu     sync.Mutex
	memo   map[string]string // reference PCs → their user model
	ref    map[uint64]string // region → the user model of its join's reference
	parent map[uint64]uint64 // region → PARENT_PRID, queried at its fork
}

func newPathOracle(col *collector.Collector) *pathOracle {
	return &pathOracle{
		strip:  perf.NewStripper("goomp_test.(*pathOracle)."),
		q:      col.NewQueue(),
		memo:   make(map[string]string),
		ref:    make(map[uint64]string),
		parent: make(map[uint64]uint64),
	}
}

func (o *pathOracle) render(pcs []uintptr) string {
	var b strings.Builder
	for _, fr := range o.strip.UserModel(perf.Resolve(pcs)) {
		fmt.Fprintf(&b, "%s %s:%d\n", fr.Func, fr.File, fr.Line)
	}
	return b.String()
}

func (o *pathOracle) wrap(next collector.Callback) collector.Callback {
	return func(e collector.Event, ti *collector.ThreadInfo) {
		if e == collector.EventFork {
			// One queue, so one query at a time: a submission that finds
			// another thread draining the queue returns before its answer.
			o.mu.Lock()
			id, _ := collector.QueryPRID(o.q, collector.ReqCurrentPRID, ti.ID)
			o.parent[id], _ = collector.QueryPRID(o.q, collector.ReqParentPRID, ti.ID)
			o.mu.Unlock()
		}
		if e == collector.EventJoin {
			pcs := make([]uintptr, 128)
			pcs = pcs[:runtime.Callers(1, pcs)]
			key := fmt.Sprintf("%x", pcs)
			o.mu.Lock()
			um, seen := o.memo[key]
			if !seen {
				um = o.render(pcs)
				o.memo[key] = um
			}
			o.ref[ti.Team().RegionID] = um
			o.mu.Unlock()
		}
		next(e, ti)
	}
}

// check holds every join the tool stored against the reference taken
// at it: each join the oracle saw is stored once, with a stack that
// starts at the region's site and whose user model is the reference's.
func (o *pathOracle) check(t *testing.T, bufs []*perf.Trace) {
	t.Helper()
	joins, disagree := 0, 0
	for _, b := range bufs {
		for _, s := range b.Samples() {
			if s.Event != int32(collector.EventJoin) {
				continue
			}
			joins++
			want, ok := o.ref[s.Region]
			stack := b.Stack(s.StackID)
			if got := o.render(stack); !ok || len(stack) == 0 || stack[0] != uintptr(s.Site) || got != want {
				if disagree++; disagree == 1 {
					t.Errorf("region %d at site %#x: stored path %x:\n%sreference (seen: %v):\n%s", s.Region, s.Site, stack, got, ok, want)
				}
			}
		}
	}
	if disagree > 0 || joins == 0 || joins != len(o.ref) {
		t.Errorf("%d joins stored, %d of them off the reference; the oracle saw %d", joins, disagree, len(o.ref))
	}
}

// underOracle runs program under a full-measurement tool attached to
// its runtime before it starts, with the oracle in front of the tool,
// and returns the traces the tool kept and the oracle.
func underOracle(t *testing.T, cfg omp.Config, program func(rt *omp.RT)) ([]*perf.Trace, *pathOracle) {
	t.Helper()
	return oracleRun(t, cfg, func(rt *omp.RT, opts tool.Options) *tool.Tool {
		tl, err := tool.AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		program(rt)
		return tl
	})
}

// oracleRun is underOracle for a run that attaches the tool itself:
// run attaches it with opts, which put the oracle in front of it,
// wherever its program needs, and returns it when the program is done.
func oracleRun(t *testing.T, cfg omp.Config, run func(rt *omp.RT, opts tool.Options) *tool.Tool) ([]*perf.Trace, *pathOracle) {
	t.Helper()
	rt := omp.New(cfg)
	defer rt.Close()
	o := newPathOracle(rt.Collector())
	opts := tool.FullMeasurement()
	opts.WrapCallback = o.wrap
	tl := run(rt, opts)
	tl.Detach()
	bufs := memoryTraces(t, tl)
	o.check(t, bufs)
	return bufs, o
}

// memoryTraces reads a memory-only tool's traces back the way a report
// reads a run directory's.
func memoryTraces(t *testing.T, tl *tool.Tool) []*perf.Trace {
	t.Helper()
	streams := map[int32]*bytes.Buffer{}
	var order []int32
	err := tl.WriteTraces(func(thread int32) (io.Writer, error) {
		streams[thread] = new(bytes.Buffer)
		order = append(order, thread)
		return streams[thread], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*perf.Trace
	for _, id := range order {
		buf, err := perf.ReadTraceStream(streams[id])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// recordingBuffer records tr's samples, each with its stack, into a
// buffer of its own, for the APIs that take what a tool records.
func recordingBuffer(tr *perf.Trace) *perf.TraceBuffer {
	b := perf.NewTraceBuffer(tr.Len(), 0)
	for _, s := range tr.Samples() {
		if s.StackID == perf.NoStack {
			b.Append(s)
		} else {
			b.AppendStacked(s, tr.Stack(s.StackID))
		}
	}
	return b
}

// userModelTable is the stack-derived table of a profile: every
// distinct user-model call path a join was recorded against, with the
// number of joins that took it.
func userModelTable(bufs []*perf.Trace) string {
	strip := perf.NewStripper("goomp_test.(*pathOracle).")
	counts := map[string]int{}
	for _, b := range bufs {
		rendered := map[int32]string{}
		for _, s := range b.Samples() {
			if s.StackID == perf.NoStack {
				continue
			}
			path, ok := rendered[s.StackID]
			if !ok {
				var fs []string
				for _, fr := range strip.UserModel(perf.Resolve(b.Stack(s.StackID))) {
					fs = append(fs, fmt.Sprintf("%s (%s:%d)", fr.Func, fr.File, fr.Line))
				}
				path = strings.Join(fs, " <- ")
				rendered[s.StackID] = path
			}
			counts[path]++
		}
	}
	lines := make([]string, 0, len(counts))
	for path, n := range counts {
		lines = append(lines, fmt.Sprintf("%6d  %s\n", n, path))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

func TestPathOracleEPCC(t *testing.T) {
	underOracle(t, omp.Config{NumThreads: 2}, func(rt *omp.RT) {
		s := epcc.NewSuite(rt)
		s.InnerReps, s.DelayLength = 8, 4
		for _, d := range epcc.Directives() {
			d.Run(s)
		}
	})
}

func TestPathOracleNPB(t *testing.T) {
	underOracle(t, omp.Config{NumThreads: 2}, func(rt *omp.RT) {
		for _, b := range npb.Suite() {
			if res := b.Run(rt, npb.ClassS); !res.Verified {
				t.Errorf("%s.S failed verification", b.Name)
			}
		}
	})
}

// The shape of examples/callstack, one level deeper: two call paths
// into one parallel region, which any shortcut keyed on the region's
// site and its caller files under one.

//go:noinline
func xSolve(rt *omp.RT, sink *int) {
	rt.Parallel(func(tc *omp.ThreadCtx) {
		tc.Master(func() { *sink++ })
	})
}

//go:noinline
func adi(rt *omp.RT, sink *int) { xSolve(rt, sink) }

//go:noinline
func warmup(rt *omp.RT, sink *int) { adi(rt, sink) }

//go:noinline
func timestep(rt *omp.RT, sink *int) {
	for i := 0; i < 3; i++ {
		adi(rt, sink)
	}
}

func TestPathOracleTwoCallersOneSite(t *testing.T) {
	var regions int
	bufs, _ := underOracle(t, omp.Config{NumThreads: 2}, func(rt *omp.RT) {
		for i := 0; i < 2; i++ {
			warmup(rt, &regions)
		}
		timestep(rt, &regions)
	})
	table := userModelTable(bufs)
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if regions != 5 || len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "     2  goomp_test.xSolve") || !strings.Contains(lines[0], "<- goomp_test.adi") || !strings.Contains(lines[0], "<- goomp_test.warmup") ||
		!strings.HasPrefix(lines[1], "     3  goomp_test.xSolve") || !strings.Contains(lines[1], "<- goomp_test.adi") || !strings.Contains(lines[1], "<- goomp_test.timestep") {
		t.Errorf("%d regions; user-model call paths:\n%s", regions, table)
	}
	sites := map[uint64]bool{}
	for _, b := range bufs {
		for _, s := range b.Samples() {
			if s.StackID != perf.NoStack {
				sites[s.Site] = true
			}
		}
	}
	if len(sites) != 1 {
		t.Errorf("the one region has %d sites", len(sites))
	}
}

// A region entered before the tool attached joins with the tool there,
// and its join is walked and stored like every later one.
func TestPathOracleEnteredBeforeAttach(t *testing.T) {
	var regions int
	_, o := oracleRun(t, omp.Config{NumThreads: 2}, func(rt *omp.RT, opts tool.Options) *tool.Tool {
		var tl *tool.Tool
		rt.Parallel(func(tc *omp.ThreadCtx) {
			if tc.ThreadNum() == 0 {
				var err error
				if tl, err = tool.AttachRuntime(rt, opts); err != nil {
					t.Error(err)
				}
			}
		})
		if tl == nil {
			t.FailNow()
		}
		timestep(rt, &regions)
		return tl
	})
	if len(o.ref) != 1+3 {
		t.Errorf("the oracle saw %d joins, want the one entered before attach and 3 more", len(o.ref))
	}
}

// A tool attached to the collector alone, as a tool that finds the
// collector API without the runtime does, stores its joins alike.
func TestPathOracleAttachCollector(t *testing.T) {
	var regions int
	oracleRun(t, omp.Config{NumThreads: 2}, func(rt *omp.RT, opts tool.Options) *tool.Tool {
		tl, err := tool.AttachCollector(rt.Collector(), opts)
		if err != nil {
			t.Fatal(err)
		}
		warmup(rt, &regions)
		timestep(rt, &regions)
		return tl
	})
}

// True-nested regions join on whichever thread encountered them, all
// at once, each against the path on its own descriptor. The region
// tree a tool rebuilds from the streams is the one the program ran.
func TestPathOracleNested(t *testing.T) {
	var mu sync.Mutex
	calls := map[uint64]int{} // site → invocations, counted by thread 0
	count := func(tc *omp.ThreadCtx) {
		if tc.ThreadNum() == 0 {
			mu.Lock()
			calls[uint64(tc.Info().Team().SitePC)]++
			mu.Unlock()
		}
	}
	bufs, o := underOracle(t, omp.Config{NumThreads: 3, Nested: true}, func(rt *omp.RT) {
		for i := 0; i < 20; i++ {
			rt.Parallel(func(tc *omp.ThreadCtx) {
				count(tc)
				// Its closing barrier puts the region on every thread's
				// stream before anything nests on it.
				tc.For(tc.NumThreads(), func(int) {})
				tc.Parallel(2, func(in *omp.ThreadCtx) {
					count(in)
					if in.ThreadNum() == 0 && tc.ThreadNum() == 1 {
						in.Parallel(2, count)
					}
				})
			})
		}
	})
	fork, join := int32(collector.EventFork), int32(collector.EventJoin)
	bySite := make(perf.RegionSiteSet)
	pairs, joins := 0, 0
	for _, b := range bufs {
		samples := b.Samples()
		// The region tree, walked on one thread's stream: a fork opens a
		// region inside the innermost one open, a join closes it, and
		// any other sample shows the region the thread is a member of —
		// entered, unlike a forked one, without an event of its own, and
		// left for the next one it shows up in.
		type level struct {
			region uint64
			member bool
		}
		var open []level
		top := func() level {
			if len(open) == 0 {
				return level{}
			}
			return open[len(open)-1]
		}
		forkRegion := map[int64]uint64{}
		for _, s := range samples {
			switch {
			case s.Event == fork:
				if p, beneath := o.parent[s.Region], top().region; p != beneath {
					t.Errorf("thread %d: region %d forks with PARENT_PRID %d over region %d", s.Thread, s.Region, p, beneath)
				}
				open = append(open, level{region: s.Region})
				forkRegion[s.Time] = s.Region
			case s.Event == join:
				joins++
				if len(open) > 0 {
					open = open[:len(open)-1]
				}
			case top().region != s.Region:
				if top().member {
					open = open[:len(open)-1]
				}
				open = append(open, level{region: s.Region, member: true})
			}
		}
		perf.ForkJoinDurations(samples, fork, join, func(s *perf.Sample, d time.Duration) {
			pairs++
			if f := forkRegion[s.Time-int64(d)]; f != s.Region {
				t.Errorf("thread %d: the fork of region %d is joined as region %d", s.Thread, f, s.Region)
			}
		})
		bySite.Merge(perf.RegionProfileBySite(samples, fork, join))
	}
	if pairs != joins || joins != 20*(1+3+1) {
		t.Errorf("%d fork/join pairs of %d joins, want %d", pairs, joins, 20*(1+3+1))
	}
	got := map[uint64]int{}
	for site, st := range bySite {
		got[site] = st.Calls
	}
	if len(calls) != 3 || !maps.Equal(got, calls) {
		t.Errorf("calls by site from fork/join pairs %v, want %v: the outer region and two nested ones", got, calls)
	}
	for _, b := range bufs {
		for _, s := range b.Samples() {
			if s.Event == int32(collector.EventThrBeginIBar) && calls[s.Site] == 0 {
				t.Fatalf("an implicit barrier of region %d has site %#x", s.Region, s.Site)
			}
		}
	}
}

// TestUserModelTablesIdenticalEitherRoute: one epcc-fine segment run
// twice into a run directory, once under a tool attached to the
// runtime and once under one attached to its collector alone; what a
// report derives from the stacks is the same text.
func TestUserModelTablesIdenticalEitherRoute(t *testing.T) {
	ds := epcc.Directives()
	rng := rand.New(rand.NewSource(17))
	var order []int
	for r := 0; r < 3; r++ {
		order = append(order, rng.Perm(len(ds))...)
	}
	run := func(attach func(rt *omp.RT, opts tool.Options) (*tool.Tool, error)) (string, uint64) {
		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		dir := t.TempDir()
		opts := tool.FullMeasurement()
		opts.StreamDir = dir
		tl, err := attach(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := epcc.NewSuite(rt)
		s.InnerReps, s.DelayLength = 16, 4
		for _, i := range order {
			ds[i].Run(s)
		}
		tl.Detach()
		if err := tl.StreamError(); err != nil {
			t.Fatal(err)
		}
		files, err := perf.FindTraceFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		var bufs []*perf.Trace
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := perf.ReadTraceStream(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, buf)
		}
		table := userModelTable(bufs)
		var leaves strings.Builder
		strip := perf.NewStripper()
		for _, b := range bufs {
			for _, sp := range perf.SiteProfiles(recordingBuffer(b), strip) {
				fmt.Fprintf(&leaves, "join site %s:%d (%s) ×%d\n", sp.Leaf.File, sp.Leaf.Line, sp.Leaf.Func, sp.Count)
			}
		}
		return table + leaves.String(), tl.Report().Events[collector.EventJoin]
	}
	// One call site for both runs: the test's own frames are user code.
	var tables [2]string
	var joins [2]uint64
	for i, attach := range []func(rt *omp.RT, opts tool.Options) (*tool.Tool, error){
		tool.AttachRuntime,
		func(rt *omp.RT, opts tool.Options) (*tool.Tool, error) {
			return tool.AttachCollector(rt.Collector(), opts)
		},
	} {
		tables[i], joins[i] = run(attach)
	}
	if joins[0] == 0 || joins[0] != joins[1] {
		t.Errorf("joins: %d attached to the runtime, %d to the collector", joins[0], joins[1])
	}
	if tables[0] != tables[1] || !strings.Contains(tables[0], "goomp/internal/epcc.") {
		t.Errorf("user-model tables differ.\nattached to the runtime:\n%s\nattached to the collector:\n%s", tables[0], tables[1])
	}
}
