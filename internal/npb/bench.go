package npb

import (
	"fmt"
	"time"

	"goomp/internal/omp"
)

// Class selects a problem size, following the NPB class convention.
// Sizes are scaled down from the originals so the suite runs on one
// machine in seconds; the region structure — which regions exist and
// how often they are invoked — follows the originals.
type Class byte

// Problem classes.
const (
	ClassS Class = 'S' // smoke test
	ClassW Class = 'W' // workstation
	ClassA Class = 'A'
	ClassB Class = 'B' // the class the paper's experiments use
)

// Valid reports whether c is a defined class.
func (c Class) Valid() bool {
	switch c {
	case ClassS, ClassW, ClassA, ClassB:
		return true
	}
	return false
}

func (c Class) String() string { return string(c) }

// ParseClass reads a -class flag: exactly one of S, W, A or B.
func ParseClass(s string) (Class, error) {
	if len(s) != 1 || !Class(s[0]).Valid() {
		return 0, fmt.Errorf("bad class %q", s)
	}
	return Class(s[0]), nil
}

// Result is the outcome of one benchmark run.
type Result struct {
	Name     string
	Class    Class
	Threads  int
	Verified bool
	// CheckValue is the benchmark's deterministic verification scalar
	// (checksum, residual norm, ...); identical across thread counts.
	CheckValue float64
	Time       time.Duration
	// Regions is the number of static parallel regions encountered;
	// RegionCalls the dynamic invocation count — the two columns of
	// Table I.
	Regions     int
	RegionCalls uint64
}

func (r Result) String() string {
	v := "FAILED"
	if r.Verified {
		v = "ok"
	}
	return fmt.Sprintf("%s.%s threads=%d %v regions=%d calls=%d check=%.6e [%s]",
		r.Name, r.Class, r.Threads, r.Time, r.Regions, r.RegionCalls, r.CheckValue, v)
}

// Benchmark is one NPB kernel.
type Benchmark struct {
	Name string
	Run  func(rt *omp.RT, class Class) Result
}

// Suite returns the benchmarks in Table I order: BT, EP, SP, MG, FT,
// CG, LU-HP, LU.
func Suite() []Benchmark {
	return []Benchmark{
		{"BT", RunBT},
		{"EP", RunEP},
		{"SP", RunSP},
		{"MG", RunMG},
		{"FT", RunFT},
		{"CG", RunCG},
		{"LU-HP", RunLUHP},
		{"LU", RunLU},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("npb: unknown benchmark %q", name)
}

// finish stamps the common fields of a result from the runtime's
// region statistics (the caller must ResetStats before computing) and
// folds the stored-reference comparison into the verification verdict.
func finish(rt *omp.RT, r *Result, start time.Time) {
	r.Time = time.Since(start)
	r.Threads = rt.Config().NumThreads
	r.Regions = len(rt.Sites())
	r.RegionCalls = rt.RegionCalls()
	r.Verified = r.Verified && VerifyReference(r.Name, r.Class, r.CheckValue)
}
