package npb

import (
	"math"
	"time"

	"goomp/internal/omp"
)

// LU and LU-HP — the SSOR kernel in its two parallelizations. The
// solver applies symmetric successive over-relaxation to the
// diagonally dominant system (1+6c)·u − c·Σ neighbors(u) = f. A
// forward Gauss-Seidel sweep updates cells in wavefront (hyperplane)
// order — cells with equal i+j+k are mutually independent — and a
// backward sweep mirrors it.
//
// LU keeps one parallel region per sweep and pipelines the wavefronts
// between threads with point-to-point synchronization; LU-HP (the
// hyperplane version) makes every wavefront its own parallel region.
// The numerics are identical, so both produce the same solution; the
// region-call counts differ by a factor of the wavefront count — which
// is why LU-HP tops Table I by two orders of magnitude and incurs the
// largest profiling overhead in Figure 5.

type luParams struct {
	n     int
	iters int
	c     float64 // off-diagonal weight
	omega float64 // relaxation factor
}

func luParamsFor(class Class) luParams {
	p := luParams{c: 0.5, omega: 1.2}
	switch class {
	case ClassS:
		p.n, p.iters = 8, 10
	case ClassW:
		p.n, p.iters = 12, 50
	case ClassA:
		p.n, p.iters = 14, 120
	default: // ClassB: 250 SSOR iterations, as the original class B.
		// The grid is sized so each hyperplane region carries enough
		// work that LU-HP's profiling overhead lands in the paper's
		// regime (largest of the suite, but not measurement-dominated).
		p.n, p.iters = 24, 250
	}
	return p
}

// luState is the shared solver state: solution, forcing, and the
// wavefront cell lists (cells grouped by i+j+k).
type luState struct {
	rt     *omp.RT
	p      luParams
	u, f   *field3
	planes [][]int32       // linear cell indices per hyperplane
	pipes  []chan struct{} // adjacent-thread pipeline tokens (LU variant)
}

// newLUState builds the solver state, the forcing drawn from the NPB
// generator seeded with seed.
func newLUState(rt *omp.RT, p luParams, seed uint64) *luState {
	s := &luState{rt: rt, p: p, u: newField3(p.n), f: newField3(p.n)}
	g := NewLCG(seed)
	for x := range s.f.data {
		s.f.data[x] = g.Next() - 0.5
	}
	n := p.n
	s.planes = make([][]int32, 3*n-2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				h := i + j + k
				s.planes[h] = append(s.planes[h], int32((i*n+j)*n+k))
			}
		}
	}
	threads := rt.Config().NumThreads
	s.pipes = make([]chan struct{}, threads)
	for i := range s.pipes {
		s.pipes[i] = make(chan struct{}, n)
	}
	return s
}

// relaxCell applies the SSOR update to one cell using the current
// neighbor values; cells within one wavefront touch disjoint data.
func (s *luState) relaxCell(x int32) {
	n := s.p.n
	i := int(x) / (n * n)
	j := (int(x) / n) % n
	k := int(x) % n
	diag := 1 + 6*s.p.c
	au := diag*s.u.data[x] - s.p.c*(s.u.lap7(i, j, k)+6*s.u.data[x])
	s.u.data[x] += s.p.omega * (s.f.data[x] - au) / diag
}

// sweepPipelined performs one forward and one backward sweep with the
// original LU parallelization: the j-dimension is partitioned among
// threads, the k-planes form a software pipeline, and adjacent threads
// synchronize point-to-point (NPB's flag arrays become channel
// tokens). Only the two region-end implicit barriers remain, which is
// why LU generates so few collector events compared to LU-HP. Any
// dependency-respecting order produces the identical Gauss–Seidel
// result, so the pipelined and hyperplane variants compute the same
// solution.
func (s *luState) sweepPipelined() {
	n := s.p.n
	run := func(forward bool) {
		s.rt.Parallel(func(tc *omp.ThreadCtx) {
			t := tc.ThreadNum()
			p := tc.NumThreads()
			jlo, jhi := omp.StaticBounds(t, p, n)
			// pipes[t] carries plane-completion tokens between threads
			// t and t+1.
			if forward {
				for k := 0; k < n; k++ {
					if t > 0 {
						<-s.pipes[t-1]
					}
					for j := jlo; j < jhi; j++ {
						for i := 0; i < n; i++ {
							s.relaxCell(int32((i*n+j)*n + k))
						}
					}
					if t < p-1 {
						s.pipes[t] <- struct{}{}
					}
				}
			} else {
				for k := n - 1; k >= 0; k-- {
					if t < p-1 {
						<-s.pipes[t]
					}
					for j := jhi - 1; j >= jlo; j-- {
						for i := n - 1; i >= 0; i-- {
							s.relaxCell(int32((i*n+j)*n + k))
						}
					}
					if t > 0 {
						s.pipes[t-1] <- struct{}{}
					}
				}
			}
		})
	}
	run(true)
	run(false)
}

// sweepHyperplane performs the same two sweeps with one parallel
// region per wavefront (the LU-HP strategy).
func (s *luState) sweepHyperplane() {
	for h := 0; h < len(s.planes); h++ {
		cells := s.planes[h]
		s.rt.Parallel(func(tc *omp.ThreadCtx) {
			tc.For(len(cells), func(c int) { s.relaxCell(cells[c]) })
		})
	}
	for h := len(s.planes) - 1; h >= 0; h-- {
		cells := s.planes[h]
		s.rt.Parallel(func(tc *omp.ThreadCtx) {
			tc.For(len(cells), func(c int) { s.relaxCell(cells[c]) })
		})
	}
}

// residualNorm computes ‖f − A·u‖ RMS.
func (s *luState) residualNorm() float64 {
	n := s.p.n
	diag := 1 + 6*s.p.c
	n3 := len(s.u.data)
	sum := blockSum(s.rt, n3, func(x int) float64 {
		i := x / (n * n)
		j := (x / n) % n
		k := x % n
		au := diag*s.u.data[x] - s.p.c*(s.u.lap7(i, j, k)+6*s.u.data[x])
		d := s.f.data[x] - au
		return d * d
	})
	return math.Sqrt(sum / float64(n3))
}

// LUResult carries the SSOR solver's outputs.
type LUResult struct {
	Result
	InitialResidual float64
	FinalResidual   float64
	SolutionNorm    float64
}

// RunLU executes the pipelined (region-per-sweep) SSOR solver.
func RunLU(rt *omp.RT, class Class) Result {
	return runLU(rt, class, false).Result
}

// RunLUHP executes the hyperplane (region-per-wavefront) SSOR solver.
func RunLUHP(rt *omp.RT, class Class) Result {
	return runLU(rt, class, true).Result
}

func runLU(rt *omp.RT, class Class, hyperplane bool) LUResult {
	p := luParamsFor(class)
	s := newLUState(rt, p, DefaultSeed)
	rt.ResetStats()
	start := time.Now()

	var res LUResult
	res.Class = class
	if hyperplane {
		res.Name = "LU-HP"
	} else {
		res.Name = "LU"
	}
	res.InitialResidual = s.residualNorm()
	for it := 0; it < p.iters; it++ {
		if hyperplane {
			s.sweepHyperplane()
		} else {
			s.sweepPipelined()
		}
	}
	res.FinalResidual = s.residualNorm()
	n3 := len(s.u.data)
	res.SolutionNorm = math.Sqrt(blockSum(rt, n3, func(i int) float64 {
		return s.u.data[i] * s.u.data[i]
	}) / float64(n3))

	res.CheckValue = res.SolutionNorm
	res.Verified = res.FinalResidual < 0.01*res.InitialResidual &&
		!math.IsNaN(res.SolutionNorm)
	finish(rt, &res.Result, start)
	return res
}
