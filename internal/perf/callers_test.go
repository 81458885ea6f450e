package perf

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// How one link of a generated call chain calls the next.
const (
	viaInlined     = iota // a helper small enough to be inlined
	viaCall               // a call that is never inlined
	viaClosure            // a closure called through a func value
	viaMethodValue        // a method value, through the wrapper the compiler makes
	viaDefer              // a deferred call, run as its function returns
	viaGoroutine          // a fresh goroutine, whose root ends the walk
	viaRecursion          // recursion past callstackDepth
	numVia
)

var viaNames = [numVia]string{"inlined", "call", "closure", "method value", "defer", "goroutine", "recursion"}

// chain is one generated call chain: kinds[i] says how link i calls
// link i+1, and at runs at its end.
type chain struct {
	kinds []int
	at    func()
}

func (c *chain) step(i int) {
	if i == len(c.kinds) {
		c.at()
		return
	}
	switch c.kinds[i] {
	case viaInlined:
		inlinedLink(c, i+1)
	case viaCall:
		calledLink(c, i+1)
	case viaClosure:
		callFunc(func() { c.step(i + 1) })
	case viaMethodValue:
		callFunc(link{c, i + 1}.run)
	case viaDefer:
		deferredLink(c, i+1)
	case viaGoroutine:
		done := make(chan struct{})
		go goroutineLink(c, i+1, done)
		<-done
	case viaRecursion:
		recursiveLink(c, i+1, callstackDepth+3)
	}
}

func inlinedLink(c *chain, i int) { c.step(i) }

//go:noinline
func calledLink(c *chain, i int) { c.step(i) }

//go:noinline
func callFunc(f func()) { f() }

type link struct {
	c *chain
	i int
}

//go:noinline
func (l link) run() { l.c.step(l.i) }

//go:noinline
func deferredLink(c *chain, i int) {
	defer c.step(i)
}

//go:noinline
func goroutineLink(c *chain, i int, done chan struct{}) {
	defer close(done)
	c.step(i)
}

//go:noinline
func recursiveLink(c *chain, i, depth int) {
	if depth == 0 {
		c.step(i)
		return
	}
	recursiveLink(c, i, depth-1)
}

// walks are the captures every chain ends in, all made from one call
// site so that each sees the same frames: the frame-pointer walk, the
// same walk into a callstackDepth window, and runtime.Callers.
var walks = [...]func(pcs []uintptr) int{
	func(pcs []uintptr) int { return Callers(1, pcs) },
	func(pcs []uintptr) int { return Callers(1, pcs[:callstackDepth]) },
	func(pcs []uintptr) int { return runtime.Callers(2, pcs) },
}

const poisonPC = ^uintptr(0)

// TestCallersMatchesRuntimeCallers walks the stack at the end of
// generated call chains by frame pointer and with runtime.Callers. The
// user model of the two walks must be the same frames: Resolve expands
// what was inlined into a physical frame, and the stripper drops the
// wrappers a frame-pointer walk sees and runtime.Callers leaves out.
// The walk must end at the goroutine's root with room to spare and
// write nothing past what it returns, a window shorter than the stack
// must get the walk's prefix, and walking must allocate nothing.
func TestCallersMatchesRuntimeCallers(t *testing.T) {
	user := &Stripper{Prefixes: []string{"runtime.", "testing."}}
	render := func(pcs []uintptr) string {
		var b strings.Builder
		for _, fr := range user.UserModel(Resolve(pcs)) {
			fmt.Fprintf(&b, "%s %s:%d\n", fr.Func, fr.File, fr.Line)
		}
		return b.String()
	}
	var chains [][]int
	for k := 0; k < numVia; k++ {
		chains = append(chains, []int{k})
	}
	rng := rand.New(rand.NewSource(1))
	for len(chains) < 200 {
		kinds := make([]int, 1+rng.Intn(6))
		for i := range kinds {
			kinds[i] = rng.Intn(numVia)
		}
		chains = append(chains, kinds)
	}
	deep := 0
	for _, kinds := range chains {
		var names []string
		for _, k := range kinds {
			names = append(names, viaNames[k])
		}
		label := strings.Join(names, " → ")
		var got [len(walks)][]uintptr
		c := &chain{kinds: kinds, at: func() {
			for w, walk := range walks {
				pcs := make([]uintptr, 8*callstackDepth)
				for i := range pcs {
					pcs[i] = poisonPC
				}
				n := walk(pcs)
				if slices.IndexFunc(pcs[n:], func(pc uintptr) bool { return pc != poisonPC }) >= 0 {
					t.Errorf("%s: walk %d wrote past the %d PCs it returned", label, w, n)
				}
				got[w] = pcs[:n]
			}
		}}
		c.step(0)
		fp, window, rc := got[0], got[1], got[2]
		if len(fp) == 0 || len(fp) == 8*callstackDepth {
			t.Fatalf("%s: the walk returned %d PCs", label, len(fp))
		}
		if fr := Resolve(fp[len(fp)-1:]); fr[len(fr)-1].Func != "runtime.goexit" {
			t.Errorf("%s: the walk ends in %s, not at the goroutine's root", label, fr[len(fr)-1].Func)
		}
		if len(fp) > callstackDepth {
			deep++
		}
		if want := fp[:min(len(fp), callstackDepth)]; !slices.Equal(window, want) {
			t.Errorf("%s: a %d-frame window got %x, want the walk's prefix %x", label, callstackDepth, window, want)
		}
		if a, b := render(fp), render(rc); a != b {
			t.Errorf("%s: user model differs.\nframe pointers:\n%sruntime.Callers:\n%s", label, a, b)
		}
	}
	if deep == 0 {
		t.Error("no chain was deeper than callstackDepth")
	}

	var scratch [callstackDepth]uintptr
	if avg := testing.AllocsPerRun(100, func() { Callers(0, scratch[:]) }); avg != 0 {
		t.Errorf("a walk allocates %.2f times, want 0", avg)
	}
}

// BenchmarkCallers walks a stack of about 15 frames both ways, into a
// callstackDepth buffer: go test -run '^$' -bench Callers ./internal/perf
func BenchmarkCallers(b *testing.B) {
	var pcs [callstackDepth]uintptr
	for _, bc := range []struct {
		name string
		walk func() int
	}{
		{"frame-pointer", func() int { return Callers(0, pcs[:]) }},
		{"runtime.Callers", func() int { return runtime.Callers(1, pcs[:]) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nest(8, func() {
				for i := 0; i < b.N; i++ {
					bc.walk()
				}
			})
		})
	}
}
