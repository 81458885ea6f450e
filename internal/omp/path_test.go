package omp

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"goomp/internal/collector"
	"goomp/internal/perf"
)

// line returns the caller's line number.
func line() int {
	_, _, l, _ := runtime.Caller(1)
	return l
}

// TestRegionSiteLineIsTheCall: a site is a return PC, and the line it
// is reported on must be the call's — not the next statement's, and
// for a call that ends a loop body not the loop header's.
func TestRegionSiteLineIsTheCall(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	straight := line() + 1
	r.Parallel(func(tc *ThreadCtx) {})
	sink := 0
	sink++ // the statement the return PC used to be filed under
	inLoop := line() + 2
	for i := 0; i < 2; i++ {
		r.Parallel(func(tc *ThreadCtx) {})
	}
	_ = sink
	var got []int
	for _, s := range r.Sites() {
		if !strings.HasSuffix(s.File, "path_test.go") {
			t.Errorf("site in %s, want this file", s.File)
		}
		got = append(got, s.Line)
	}
	if want := []int{straight, inLoop}; !slices.Equal(got, want) {
		t.Errorf("site lines = %v, want %v (straight-line call, call ending a loop body)", got, want)
	}
}

// onJoin registers a join callback that walks the joining thread's
// stack, as a recording tool does, and hands seen the region and the
// path from its site on (nil when the site is not on the walk).
func onJoin(t *testing.T, r *RT, seen func(info *collector.TeamInfo, path []uintptr)) {
	t.Helper()
	q := r.Collector().NewQueue()
	if ec := collector.Control(q, collector.ReqStart); ec != collector.ErrOK {
		t.Fatal(ec)
	}
	h := r.Collector().NewCallbackHandle(func(e collector.Event, ti *collector.ThreadInfo) {
		pcs := make([]uintptr, 64)
		pcs = pcs[:perf.Callers(0, pcs)]
		info := ti.Team()
		if i := slices.Index(pcs, info.SitePC); i >= 0 {
			seen(info, pcs[i:])
		} else {
			seen(info, nil)
		}
	})
	if ec := collector.Register(q, collector.EventJoin, h); ec != collector.ErrOK {
		t.Fatal(ec)
	}
}

// TestNestedRegionSiteAndPath: a true-nested region gets its site from
// the same walk as a top-level region's, and its join — raised on the
// encountering thread, in the activation that forked — finds that site
// on its own walk, with the nesting user code above it.
func TestNestedRegionSiteAndPath(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2, Nested: true})
	const test = "goomp/internal/omp.TestNestedRegionSiteAndPath"

	var mu sync.Mutex
	sites := map[string][]uintptr{} // nested call site label → SitePCs seen
	leaves := map[uintptr]string{}  // SitePC → the function its join's path starts in
	onJoin(t, r, func(info *collector.TeamInfo, path []uintptr) {
		leaf := "no path"
		if path != nil {
			leaf = perf.Resolve(path)[0].Func
		}
		mu.Lock()
		if prev, ok := leaves[info.SitePC]; ok && prev != leaf {
			t.Errorf("site %#x: joins start in %s and %s", info.SitePC, prev, leaf)
		}
		leaves[info.SitePC] = leaf
		mu.Unlock()
	})
	nest := func(tc *ThreadCtx, label string, body func(in *ThreadCtx)) {
		tc.Parallel(2, func(in *ThreadCtx) {
			if in.ThreadNum() == 0 {
				mu.Lock()
				sites[label] = append(sites[label], in.Info().Team().SitePC)
				mu.Unlock()
			}
			if body != nil {
				body(in)
			}
		})
	}
	var outerSite uintptr
	for rep := 0; rep < 2; rep++ {
		r.Parallel(func(tc *ThreadCtx) {
			if tc.ThreadNum() == 0 {
				outerSite = tc.Info().Team().SitePC
			}
			nest(tc, "a", nil)
			// Two levels down on one descriptor.
			nest(tc, "b", func(in *ThreadCtx) {
				if in.ThreadNum() == 0 {
					nest(in, "c", nil)
				}
			})
		})
	}
	seen := map[uintptr]string{}
	for label, pcs := range sites {
		for _, pc := range pcs {
			if pc != pcs[0] {
				t.Errorf("site %s has PCs %#x and %#x", label, pcs[0], pc)
			}
		}
		// a and b are reached through nest's one tc.Parallel call: one
		// static site, told apart by path. c is the same call again.
		seen[pcs[0]] = label
	}
	if len(sites["a"]) != 4 || len(sites["b"]) != 4 || len(sites["c"]) != 4 {
		t.Errorf("nested regions seen: %d a, %d b, %d c; want 4 each", len(sites["a"]), len(sites["b"]), len(sites["c"]))
	}
	if len(seen) != 1 {
		t.Errorf("nest's one call site has %d PCs", len(seen))
	}
	for pc := range seen {
		if pc == outerSite {
			t.Error("nested site equals the outer region's")
		}
		if got, want := leaves[pc], runtime.FuncForPC(reflect.ValueOf(nest).Pointer()).Name(); got != want {
			t.Errorf("nested joins start in %s, want nest (%s)", got, want)
		}
	}
	if got := leaves[outerSite]; got != test {
		t.Errorf("outer joins start in %s, want the test", got)
	}
}

// TestNestedSitesAreDistinct: two nested call sites are two sites.
func TestNestedSitesAreDistinct(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2, Nested: true})
	var a, b uintptr
	r.Parallel(func(tc *ThreadCtx) {
		if tc.ThreadNum() != 0 {
			return
		}
		tc.Parallel(2, func(in *ThreadCtx) {
			if in.ThreadNum() == 0 {
				a = in.Info().Team().SitePC
			}
		})
		tc.Parallel(2, func(in *ThreadCtx) {
			if in.ThreadNum() == 0 {
				b = in.Info().Team().SitePC
			}
		})
	})
	if a == 0 || b == 0 || a == b {
		t.Errorf("nested sites %#x and %#x", a, b)
	}
	// Sites lists them, marked, beside the one top-level region.
	nested := map[uintptr]bool{}
	for _, s := range r.Sites() {
		if s.Calls != 1 || (s.PC == a || s.PC == b) != s.Nested {
			t.Errorf("site %+v", s)
		}
		nested[s.PC] = s.Nested
	}
	if len(nested) != 3 || !nested[a] || !nested[b] {
		t.Errorf("sites %v, want the outer region and nested %#x, %#x", nested, a, b)
	}
}

// TestRegionPathAllocatesNothing: a join callback that walks its
// region's path into scratch of its own, as a recording tool does, adds
// no allocation to a region.
func TestRegionPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	r := newRT(t, Config{NumThreads: 2})
	body := func(tc *ThreadCtx) {}
	region := func() { r.Parallel(body) }
	region() // the pool
	off := testing.AllocsPerRun(200, region)
	var scratch [64]uintptr
	walked := 0
	q := r.Collector().NewQueue()
	collector.Control(q, collector.ReqStart)
	h := r.Collector().NewCallbackHandle(func(collector.Event, *collector.ThreadInfo) {
		if perf.Callers(0, scratch[:]) > 0 {
			walked++
		}
	})
	collector.Register(q, collector.EventJoin, h)
	on := testing.AllocsPerRun(200, region)
	if on != off || walked == 0 {
		t.Errorf("a region allocates %.1f times with its join walking %d paths, %.1f with no walk", on, walked, off)
	}
}
