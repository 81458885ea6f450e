// The differential oracle for "a call path is walked once": a join is
// recorded against the path the runtime walked at its region's entry,
// and this file checks — at every join of every program it runs, by
// capturing both ways — that a profile cannot tell that path from the
// stack an unwind in the join callback would have stored.
package goomp_test

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
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

// pathOracle sits in front of the tool's callback. At each join it has
// the entry path on the descriptor and is itself at the point where
// the tool would unwind, so it unwinds, and compares the two as a
// report shows them: resolved and stripped to the user model. Its own
// frame is measurement infrastructure like the tool's. At each fork it
// asks the collector, as a tool would, for the region's ID and parent.
type pathOracle struct {
	strip *perf.Stripper
	q     collector.Queue

	mu       sync.Mutex
	memo     map[string]string // both captures → "" or the disagreement
	joins    int
	noPath   int
	disagree []string
	parent   map[uint64]uint64 // region → PARENT_PRID, queried at its fork
}

func newPathOracle(col *collector.Collector) *pathOracle {
	return &pathOracle{
		strip:  perf.NewStripper("goomp_test.(*pathOracle)."),
		q:      col.NewQueue(),
		memo:   make(map[string]string),
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
			entry := ti.RegionPath().PCs()
			unwound := perf.Callstack(0, 64)
			key := fmt.Sprintf("%x|%x", entry, unwound)
			o.mu.Lock()
			o.joins++
			if entry == nil {
				o.noPath++
			} else {
				diff, seen := o.memo[key]
				if !seen {
					if a, b := o.render(entry), o.render(unwound); a != b {
						diff = fmt.Sprintf("entry path:\n%sjoin-time stack:\n%s", a, b)
					}
					o.memo[key] = diff
				}
				if diff != "" {
					o.disagree = append(o.disagree, diff)
				}
			}
			o.mu.Unlock()
		}
		next(e, ti)
	}
}

// check holds the oracle's verdict against the tool's own account of
// the routes its joins took.
func (o *pathOracle) check(t *testing.T, rep *tool.Report) {
	t.Helper()
	if len(o.disagree) > 0 {
		t.Errorf("%d of %d joins disagree; the first:\n%s", len(o.disagree), o.joins, o.disagree[0])
	}
	if o.joins == 0 || o.noPath != 0 {
		t.Errorf("%d joins, %d of them without an entry path", o.joins, o.noPath)
	}
	if rep.JoinPathsSupplied != uint64(o.joins) || rep.JoinStacksUnwound != 0 {
		t.Errorf("report: %d joins from entry paths, %d unwound; the oracle saw %d joins",
			rep.JoinPathsSupplied, rep.JoinStacksUnwound, o.joins)
	}
}

// underOracle runs program under a full-measurement tool with the
// oracle in front of it and returns the traces the tool kept and the
// oracle.
func underOracle(t *testing.T, cfg omp.Config, program func(rt *omp.RT)) ([]*perf.TraceBuffer, *pathOracle) {
	t.Helper()
	rt := omp.New(cfg)
	defer rt.Close()
	o := newPathOracle(rt.Collector())
	opts := tool.FullMeasurement()
	opts.WrapCallback = o.wrap
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	program(rt)
	tl.Detach()
	o.check(t, tl.Report())
	return memoryTraces(t, tl), o
}

// memoryTraces reads a memory-only tool's traces back the way a report
// reads a run directory's.
func memoryTraces(t *testing.T, tl *tool.Tool) []*perf.TraceBuffer {
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
	var out []*perf.TraceBuffer
	for _, id := range order {
		buf, err := perf.ReadTraceStream(streams[id])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// userModelTable is the stack-derived table of a profile: every
// distinct user-model call path a join was recorded against, with the
// number of joins that took it.
func userModelTable(bufs []*perf.TraceBuffer) string {
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
// twice into a run directory, once recorded against entry paths and
// once with the tool made to unwind every join itself; what a report
// derives from the stacks is the same text.
func TestUserModelTablesIdenticalEitherRoute(t *testing.T) {
	ds := epcc.Directives()
	rng := rand.New(rand.NewSource(17))
	var order []int
	for r := 0; r < 3; r++ {
		order = append(order, rng.Perm(len(ds))...)
	}
	run := func(supplied bool) (string, *tool.Report) {
		rt := omp.New(omp.Config{NumThreads: 2})
		defer rt.Close()
		dir := t.TempDir()
		opts := tool.FullMeasurement()
		opts.StreamDir = dir
		tl, err := tool.AttachRuntime(rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !supplied {
			rt.Collector().SetRegionPaths(false) // the tool finds no path and falls back
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
		var bufs []*perf.TraceBuffer
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
			for _, sp := range perf.SiteProfiles(b, strip) {
				fmt.Fprintf(&leaves, "join site %s:%d (%s) ×%d\n", sp.Leaf.File, sp.Leaf.Line, sp.Leaf.Func, sp.Count)
			}
		}
		return table + leaves.String(), tl.Report()
	}
	// One call site for both runs: the test's own frames are user code.
	var tables [2]string
	var reps [2]*tool.Report
	for i, supplied := range []bool{true, false} {
		tables[i], reps[i] = run(supplied)
	}
	joins := reps[0].JoinPathsSupplied
	if joins == 0 || reps[0].JoinStacksUnwound != 0 {
		t.Errorf("entry-path run: %d supplied, %d unwound", joins, reps[0].JoinStacksUnwound)
	}
	if reps[1].JoinPathsSupplied != 0 || reps[1].JoinStacksUnwound != joins {
		t.Errorf("forced-unwind run: %d supplied, %d unwound; the other run recorded %d joins",
			reps[1].JoinPathsSupplied, reps[1].JoinStacksUnwound, joins)
	}
	if tables[0] != tables[1] || !strings.Contains(tables[0], "goomp/internal/epcc.") {
		t.Errorf("user-model tables differ.\nentry paths:\n%s\njoin-time unwinding:\n%s", tables[0], tables[1])
	}
}
