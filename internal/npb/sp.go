package npb

import (
	"math"
	"time"

	"goomp/internal/omp"
)

// SP — the scalar pentadiagonal kernel: an ADI (alternating direction
// implicit) solver that advances a forced diffusion problem
// u_t = ∇²u + f toward steady state. Each timestep factors the
// implicit operator by direction and solves scalar pentadiagonal
// systems along every x, y and z line (second-difference diffusion plus
// fourth-difference numerical dissipation gives the five bands, as in
// the original). Each stage of the timestep — rhs, the pre/post
// diagonal transforms (txinvr, ninvr, tzetar stand-ins) and the three
// line-solve sweeps plus the final add — is its own parallel region,
// giving SP the per-step region multiplicity Table I reports.

type spParams struct {
	n     int
	steps int
	dt    float64
	diss  float64 // fourth-difference dissipation coefficient
}

func spParamsFor(class Class) spParams {
	p := spParams{dt: 0.05, diss: 0.02}
	switch class {
	case ClassS:
		p.n, p.steps = 10, 20
	case ClassW:
		p.n, p.steps = 12, 100
	case ClassA:
		p.n, p.steps = 14, 200
	default: // ClassB: 400 steps, as the original class B
		p.n, p.steps = 16, 400
	}
	return p
}

// spState bundles the solver fields.
type spState struct {
	rt  *omp.RT
	p   spParams
	u   *field3 // solution
	f   *field3 // forcing
	rhs *field3 // per-step right-hand side / increment
}

// newSPState builds SP's fields, the forcing drawn from the NPB
// generator seeded with seed.
func newSPState(rt *omp.RT, p spParams, seed uint64) *spState {
	s := &spState{rt: rt, p: p, u: newField3(p.n), f: newField3(p.n), rhs: newField3(p.n)}
	g := NewLCG(seed)
	for x := range s.f.data {
		s.f.data[x] = g.Next() - 0.5
	}
	return s
}

// computeRHS forms rhs = dt·(f + ∇²u): one parallel region.
func (s *spState) computeRHS() {
	n := s.p.n
	dt := s.p.dt
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		tc.For(n, func(i int) {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					x := (i*n+j)*n + k
					s.rhs.data[x] = dt * (s.f.data[x] + s.u.lap7(i, j, k))
				}
			}
		})
	})
}

// diagScale is the stand-in for SP's txinvr/ninvr/tzetar stages: a
// diagonal transform of the right-hand side, one region per stage.
func (s *spState) diagScale(factor float64) {
	n := s.p.n
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		tc.For(n, func(i int) {
			base := i * n * n
			for x := base; x < base+n*n; x++ {
				s.rhs.data[x] *= factor
			}
		})
	})
}

// pentaBands returns the (e, a, b) bands of the per-direction implicit
// operator I − dt·Dxx + diss·Dxxxx.
func (s *spState) pentaBands() (e, a, b float64) {
	dt, ds := s.p.dt, s.p.diss
	e = ds
	a = -dt - 4*ds
	b = 1 + 2*dt + 6*ds
	return
}

// solveX solves the pentadiagonal systems along every x line (lines
// indexed by (j,k)); one parallel region.
func (s *spState) solveX() {
	n := s.p.n
	e, a, b := s.pentaBands()
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		line := make([]float64, n)
		w := make([]float64, pentaScratch*n)
		tc.For(n*n, func(l int) {
			j, k := l/n, l%n
			for i := 0; i < n; i++ {
				line[i] = s.rhs.data[(i*n+j)*n+k]
			}
			pentaSolve(e, a, b, line, w)
			for i := 0; i < n; i++ {
				s.rhs.data[(i*n+j)*n+k] = line[i]
			}
		})
	})
}

// solveY solves along y lines (indexed by (i,k)).
func (s *spState) solveY() {
	n := s.p.n
	e, a, b := s.pentaBands()
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		line := make([]float64, n)
		w := make([]float64, pentaScratch*n)
		tc.For(n*n, func(l int) {
			i, k := l/n, l%n
			for j := 0; j < n; j++ {
				line[j] = s.rhs.data[(i*n+j)*n+k]
			}
			pentaSolve(e, a, b, line, w)
			for j := 0; j < n; j++ {
				s.rhs.data[(i*n+j)*n+k] = line[j]
			}
		})
	})
}

// solveZ solves along z lines (contiguous; indexed by (i,j)).
func (s *spState) solveZ() {
	n := s.p.n
	e, a, b := s.pentaBands()
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		w := make([]float64, pentaScratch*n)
		tc.For(n*n, func(l int) {
			lo := l * n
			pentaSolve(e, a, b, s.rhs.data[lo:lo+n], w)
		})
	})
}

// add applies the increment: u += rhs.
func (s *spState) add() {
	n := s.p.n
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		tc.For(n, func(i int) {
			base := i * n * n
			for x := base; x < base+n*n; x++ {
				s.u.data[x] += s.rhs.data[x]
			}
		})
	})
}

// step advances one timestep: nine regions. The four diagonal
// transforms compose to the identity (the originals change to and
// from characteristic variables; the solve stages are linear, so
// constant scalings commute with them and cancel exactly).
func (s *spState) step() {
	s.computeRHS()     // 1
	s.diagScale(2)     // 2 txinvr
	s.solveX()         // 3
	s.diagScale(2)     // 4 ninvr
	s.solveY()         // 5
	s.diagScale(2)     // 6 ninvr
	s.solveZ()         // 7
	s.diagScale(0.125) // 8 tzetar
	s.add()            // 9
}

// incrementNorm is the RMS of the last increment, the convergence
// monitor.
func (s *spState) incrementNorm() float64 {
	n3 := len(s.rhs.data)
	sum := blockSum(s.rt, n3, func(i int) float64 { return s.rhs.data[i] * s.rhs.data[i] })
	return math.Sqrt(sum / float64(n3))
}

// SPResult carries SP's detailed outputs.
type SPResult struct {
	Result
	FirstIncrement float64
	LastIncrement  float64
	SolutionNorm   float64
}

// RunSP executes SP and wraps the generic result.
func RunSP(rt *omp.RT, class Class) Result {
	return RunSPFull(rt, class).Result
}

// RunSPFull executes SP and returns the convergence monitors.
func RunSPFull(rt *omp.RT, class Class) SPResult {
	p := spParamsFor(class)
	s := newSPState(rt, p, DefaultSeed)
	rt.ResetStats()
	start := time.Now()

	var res SPResult
	res.Name, res.Class = "SP", class

	for step := 0; step < p.steps; step++ {
		s.step()
		if step == 0 {
			res.FirstIncrement = s.incrementNorm()
		}
	}
	res.LastIncrement = s.incrementNorm()
	n3 := len(s.u.data)
	res.SolutionNorm = math.Sqrt(blockSum(rt, n3, func(i int) float64 {
		return s.u.data[i] * s.u.data[i]
	}) / float64(n3))

	res.CheckValue = res.SolutionNorm
	// Approach to steady state: the increment must shrink
	// substantially and the solution must stay finite.
	res.Verified = res.LastIncrement < 0.5*res.FirstIncrement &&
		!math.IsNaN(res.SolutionNorm) && res.SolutionNorm > 0
	finish(rt, &res.Result, start)
	return res
}
