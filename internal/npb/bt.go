package npb

import (
	"math"
	"time"

	"goomp/internal/omp"
)

// BT — the block tridiagonal kernel: the same ADI structure as SP, but
// for a system of five coupled fields (the five flow variables of the
// original), so each directional sweep solves 5×5 block-tridiagonal
// systems along every line — the block size that gives BT its name. A
// timestep is five parallel regions — rhs, the three sweeps, and the
// add — matching BT's lower per-step region multiplicity relative to
// SP in Table I.

// btComponents is the number of coupled fields (NPB's five flow
// variables).
const btComponents = 5

type btParams struct {
	n     int
	steps int
	dt    float64
}

func btParamsFor(class Class) btParams {
	p := btParams{dt: 0.05}
	switch class {
	case ClassS:
		p.n, p.steps = 10, 10
	case ClassW:
		p.n, p.steps = 12, 50
	case ClassA:
		p.n, p.steps = 14, 100
	default: // ClassB: 200 steps, as the original class B
		p.n, p.steps = 16, 200
	}
	return p
}

// btState holds the five coupled fields, stored per-component.
type btState struct {
	rt  *omp.RT
	p   btParams
	u   [btComponents]*field3
	f   [btComponents]*field3
	rhs [btComponents]*field3
	// couple is the local 5×5 coupling among the components.
	couple smallMat
}

// newBTState builds BT's fields, the forcing drawn from the NPB
// generator seeded with seed.
func newBTState(rt *omp.RT, p btParams, seed uint64) *btState {
	s := &btState{rt: rt, p: p, couple: btCoupling()}
	g := NewLCG(seed)
	for c := 0; c < btComponents; c++ {
		s.u[c] = newField3(p.n)
		s.rhs[c] = newField3(p.n)
		s.f[c] = newField3(p.n)
		for x := range s.f[c].data {
			s.f[c].data[x] = g.Next() - 0.5
		}
	}
	return s
}

// btCoupling is a fixed, weakly off-diagonal coupling matrix with row
// sums under 1, keeping the implicit operators diagonally dominant.
// The band structure loosely follows the physical couplings of the
// original's flux Jacobians (each variable couples most strongly to
// its neighbors in the state vector).
func btCoupling() smallMat {
	m := newSmallMat(btComponents)
	vals := [btComponents][btComponents]float64{
		{0.00, 0.10, 0.04, 0.02, 0.01},
		{0.10, 0.00, 0.10, 0.04, 0.02},
		{0.04, 0.10, 0.00, 0.10, 0.04},
		{0.02, 0.04, 0.10, 0.00, 0.10},
		{0.01, 0.02, 0.04, 0.10, 0.00},
	}
	for i := 0; i < btComponents; i++ {
		for j := 0; j < btComponents; j++ {
			m.a[i*btComponents+j] = vals[i][j]
		}
	}
	return m
}

// computeRHS forms rhs_c = dt·(f_c + ∇²u_c + (C·u)_c): one region.
func (s *btState) computeRHS() {
	n := s.p.n
	dt := s.p.dt
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		var u, cu [btComponents]float64
		tc.For(n, func(i int) {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					x := (i*n+j)*n + k
					for c := 0; c < btComponents; c++ {
						u[c] = s.u[c].data[x]
					}
					s.couple.mulVec(cu[:], u[:])
					for c := 0; c < btComponents; c++ {
						s.rhs[c].data[x] = dt * (s.f[c].data[x] + s.u[c].lap7(i, j, k) + cu[c])
					}
				}
			}
		})
	})
}

// sweepBlocks returns the off-diagonal and diagonal blocks of the
// per-direction implicit operator (I − (dt/3)·C) ⊗ diffusion: the
// coupling is split evenly across the three directional factors.
func (s *btState) sweepBlocks() (A, B smallMat) {
	dt := s.p.dt
	A = identitySmall(btComponents)
	A.scale(A, -dt) // off-diagonal: −dt per neighbor
	B = identitySmall(btComponents)
	B.scale(B, 1+2*dt)
	cpl := s.couple.clone()
	cpl.scale(cpl, dt/3)
	B.subFrom(B, cpl)
	return
}

// solveDir solves the 5×5 block-tridiagonal systems along direction
// dir (0 = x, 1 = y, 2 = z); one parallel region over lines.
func (s *btState) solveDir(dir int) {
	n := s.p.n
	A, B := s.sweepBlocks()
	index := func(dir, a, b, t int) int {
		switch dir {
		case 0:
			return (t*n+a)*n + b
		case 1:
			return (a*n+t)*n + b
		default:
			return (a*n+b)*n + t
		}
	}
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		d := make([]float64, btComponents*n)
		sc := newBlockTriScratch(btComponents, n)
		tc.For(n*n, func(l int) {
			a, b := l/n, l%n
			for t := 0; t < n; t++ {
				x := index(dir, a, b, t)
				for c := 0; c < btComponents; c++ {
					d[t*btComponents+c] = s.rhs[c].data[x]
				}
			}
			blockTriSolveN(A, B, d, sc)
			for t := 0; t < n; t++ {
				x := index(dir, a, b, t)
				for c := 0; c < btComponents; c++ {
					s.rhs[c].data[x] = d[t*btComponents+c]
				}
			}
		})
	})
}

// add applies the increment to all components; one region.
func (s *btState) add() {
	n := s.p.n
	s.rt.Parallel(func(tc *omp.ThreadCtx) {
		tc.For(n, func(i int) {
			base := i * n * n
			for c := 0; c < btComponents; c++ {
				u, r := s.u[c].data, s.rhs[c].data
				for x := base; x < base+n*n; x++ {
					u[x] += r[x]
				}
			}
		})
	})
}

// step advances one timestep: five regions.
func (s *btState) step() {
	s.computeRHS() // 1
	s.solveDir(0)  // 2
	s.solveDir(1)  // 3
	s.solveDir(2)  // 4
	s.add()        // 5
}

// incrementNorm is the RMS of the last increment over all components.
func (s *btState) incrementNorm() float64 {
	n3 := len(s.rhs[0].data)
	var total float64
	for c := 0; c < btComponents; c++ {
		data := s.rhs[c].data
		total += blockSum(s.rt, n3, func(i int) float64 { return data[i] * data[i] })
	}
	return math.Sqrt(total / float64(btComponents*n3))
}

// BTResult carries BT's detailed outputs.
type BTResult struct {
	Result
	FirstIncrement float64
	LastIncrement  float64
	SolutionNorm   float64
}

// RunBT executes BT and wraps the generic result.
func RunBT(rt *omp.RT, class Class) Result {
	return RunBTFull(rt, class).Result
}

// RunBTFull executes BT and returns the convergence monitors.
func RunBTFull(rt *omp.RT, class Class) BTResult {
	p := btParamsFor(class)
	s := newBTState(rt, p, DefaultSeed)
	rt.ResetStats()
	start := time.Now()

	var res BTResult
	res.Name, res.Class = "BT", class
	for step := 0; step < p.steps; step++ {
		s.step()
		if step == 0 {
			res.FirstIncrement = s.incrementNorm()
		}
	}
	res.LastIncrement = s.incrementNorm()
	n3 := len(s.u[0].data)
	var norm float64
	for c := 0; c < btComponents; c++ {
		data := s.u[c].data
		norm += blockSum(rt, n3, func(i int) float64 { return data[i] * data[i] })
	}
	res.SolutionNorm = math.Sqrt(norm / float64(btComponents*n3))

	res.CheckValue = res.SolutionNorm
	res.Verified = res.LastIncrement < 0.5*res.FirstIncrement &&
		!math.IsNaN(res.SolutionNorm) && res.SolutionNorm > 0
	finish(rt, &res.Result, start)
	return res
}
