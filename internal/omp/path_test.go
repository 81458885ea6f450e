package omp

import (
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

const poison = ^uintptr(0)

// poisonScratch overwrites a descriptor's path scratch, so that a walk
// into it shows.
func poisonScratch(td *collector.ThreadInfo) {
	s := td.RegionPath().Scratch()
	for i := range s {
		s[i] = poison
	}
}

func scratchUntouched(td *collector.ThreadInfo) bool {
	for _, pc := range td.RegionPath().Scratch() {
		if pc != poison {
			return false
		}
	}
	return true
}

// TestRegionPathOnlyWhenAsked: with nobody asking, a region entry
// walks its one site frame and leaves no path; while a tool asks, the
// master's parallel descriptor carries the path from the site to the
// root; a stop request ends it.
func TestRegionPathOnlyWhenAsked(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2})
	col := r.Collector()
	_, mp := r.MasterDescriptors()
	q := col.NewQueue()

	quiet := func(when string) {
		t.Helper()
		poisonScratch(mp)
		for i := 0; i < 3; i++ {
			r.Parallel(func(tc *ThreadCtx) {
				if tc.ThreadNum() == 0 && tc.Info().RegionPath().PCs() != nil {
					t.Errorf("%s: region has a path", when)
				}
			})
			r.ParallelN(2, func(tc *ThreadCtx) {})
			r.ParallelFor(4, func(tc *ThreadCtx, i int) {})
		}
		if mp.RegionPath().PCs() != nil {
			t.Errorf("%s: path left on the descriptor", when)
		}
		if !scratchUntouched(mp) {
			t.Errorf("%s: the site walk went past its one frame", when)
		}
	}
	quiet("no tool")

	if ec := collector.Control(q, collector.ReqStart); ec != collector.ErrOK {
		t.Fatal(ec)
	}
	col.SetRegionPaths(true)
	var site uintptr
	var path []uintptr
	r.Parallel(func(tc *ThreadCtx) {
		if tc.ThreadNum() == 0 {
			site = tc.Info().Team().SitePC
			path = slices.Clone(tc.Info().RegionPath().PCs())
		} else if tc.Info().RegionPath().PCs() != nil {
			t.Error("a worker's descriptor has a path")
		}
	})
	if len(path) == 0 || len(path) > collector.PathDepth || path[0] != site {
		t.Fatalf("path %x for site %#x", path, site)
	}
	if !slices.Equal(mp.RegionPath().PCs(), path) {
		t.Error("the path changed between the region body and its join")
	}
	fr := perf.Resolve(path)
	if fr[0].Func != "goomp/internal/omp.TestRegionPathOnlyWhenAsked" {
		t.Errorf("path starts in %s", fr[0].Func)
	}
	if last := fr[len(fr)-1].Func; last != "runtime.goexit" {
		t.Errorf("path ends in %s, want the goroutine's root", last)
	}

	// A paused tool sees no join, so it needs no path.
	if ec := collector.Control(q, collector.ReqPause); ec != collector.ErrOK {
		t.Fatal(ec)
	}
	quiet("paused")
	if ec := collector.Control(q, collector.ReqResume); ec != collector.ErrOK {
		t.Fatal(ec)
	}
	r.Parallel(func(tc *ThreadCtx) {})
	if mp.RegionPath().PCs() == nil {
		t.Error("no path after resume")
	}

	if ec := collector.Control(q, collector.ReqStop); ec != collector.ErrOK {
		t.Fatal(ec)
	}
	quiet("after stop")
}

// TestNestedRegionSiteAndPath: a true-nested region gets its site and
// its path from the same walk, on the encountering thread's
// descriptor, and gives that descriptor's own path back at its join.
func TestNestedRegionSiteAndPath(t *testing.T) {
	r := newRT(t, Config{NumThreads: 2, Nested: true})
	r.Collector().SetRegionPaths(true)

	var mu sync.Mutex
	sites := map[string][]uintptr{} // nested call site label → SitePCs seen
	nest := func(tc *ThreadCtx, label string, body func(in *ThreadCtx)) {
		tc.Parallel(2, func(in *ThreadCtx) {
			if in.ThreadNum() == 0 {
				info := in.Info().Team()
				path := in.Info().RegionPath().PCs()
				if info.SitePC == 0 || len(path) == 0 || path[0] != info.SitePC {
					t.Errorf("%s: nested site %#x, path %x", label, info.SitePC, path)
				}
				mu.Lock()
				sites[label] = append(sites[label], info.SitePC)
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
			before := slices.Clone(tc.Info().RegionPath().PCs())
			if tc.ThreadNum() == 0 {
				outerSite = tc.Info().Team().SitePC
				if len(before) == 0 || before[0] != outerSite {
					t.Errorf("outer path %x for site %#x", before, outerSite)
				}
			} else if before != nil {
				t.Errorf("worker starts with a path")
			}
			nest(tc, "a", nil)
			// Two levels down on one descriptor: the innermost region
			// must not cost the middle one its path.
			nest(tc, "b", func(in *ThreadCtx) {
				if in.ThreadNum() != 0 {
					return
				}
				mid := slices.Clone(in.Info().RegionPath().PCs())
				nest(in, "c", nil)
				if !slices.Equal(in.Info().RegionPath().PCs(), mid) {
					t.Error("innermost region did not restore the middle region's path")
				}
			})
			if !slices.Equal(tc.Info().RegionPath().PCs(), before) {
				t.Errorf("thread %d: nested regions did not restore the outer path", tc.ThreadNum())
			}
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
			if in.ThreadNum() == 0 && in.Info().RegionPath().PCs() != nil {
				t.Error("nested region has a path nobody asked for")
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

// TestRegionPathAllocatesNothing: the path lives in the descriptor, so
// a region entry with paths on allocates what one with paths off does.
func TestRegionPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	r := newRT(t, Config{NumThreads: 2})
	body := func(tc *ThreadCtx) {}
	region := func() { r.Parallel(body) }
	region() // the pool
	off := testing.AllocsPerRun(200, region)
	r.Collector().SetRegionPaths(true)
	on := testing.AllocsPerRun(200, region)
	if on != off {
		t.Errorf("a region allocates %.1f times with paths on, %.1f with paths off", on, off)
	}
}
