package npb

import (
	"math"

	"goomp/internal/omp"
)

// Zone adapts the BT, SP and LU solvers for the multi-zone benchmarks:
// each zone advances its own field with its solver's characteristic
// per-step parallel-region structure, exposes mean boundary faces, and
// accepts neighbor faces as a relaxation coupling on its boundary
// forcing (a Schwarz-style exchange standing in for the original's
// overlapping boundary copy).
type Zone interface {
	// Step advances one timestep using the owning runtime.
	Step()
	// Face returns the solution on one boundary plane (side 0 = x-min,
	// 1 = x-max, 2 = y-min, 3 = y-max), flattened.
	Face(side int) []float64
	// CoupleFace relaxes the zone's boundary forcing toward the
	// neighbor's face values.
	CoupleFace(side int, neighbor []float64)
	// Norm returns the RMS of the zone's solution.
	Norm() float64
}

// zoneFaceCoupling is the relaxation weight of the boundary exchange.
const zoneFaceCoupling = 0.2

// facePlane extracts a boundary plane of a field.
func facePlane(u *field3, side int) []float64 {
	n := u.n
	out := make([]float64, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			switch side {
			case 0:
				out[a*n+b] = u.data[(0*n+a)*n+b]
			case 1:
				out[a*n+b] = u.data[((n-1)*n+a)*n+b]
			case 2:
				out[a*n+b] = u.data[(a*n+0)*n+b]
			default:
				out[a*n+b] = u.data[(a*n+(n-1))*n+b]
			}
		}
	}
	return out
}

// coupleFace relaxes forcing boundary cells toward neighbor values.
func coupleFace(f, u *field3, side int, neighbor []float64) {
	n := f.n
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			var x int
			switch side {
			case 0:
				x = (0*n+a)*n + b
			case 1:
				x = ((n-1)*n+a)*n + b
			case 2:
				x = (a*n+0)*n + b
			default:
				x = (a*n+(n-1))*n + b
			}
			f.data[x] += zoneFaceCoupling * (neighbor[a*n+b] - u.data[x])
		}
	}
}

// --- SP zone ---

type spZone struct{ s *spState }

// NewSPZone creates an SP-solver zone of edge n on rt. Each Step is
// the nine-region SP timestep.
func NewSPZone(rt *omp.RT, n int, seed uint64) Zone {
	return &spZone{s: newSPState(rt, spParams{n: n, dt: 0.05, diss: 0.02}, seed)}
}

func (z *spZone) Step() { z.s.step() }

func (z *spZone) Face(side int) []float64 { return facePlane(z.s.u, side) }
func (z *spZone) CoupleFace(side int, nb []float64) {
	coupleFace(z.s.f, z.s.u, side, nb)
}
func (z *spZone) Norm() float64 { return serialRMS(z.s.u.data) }

// --- BT zone ---

type btZone struct{ s *btState }

// NewBTZone creates a BT-solver zone of edge n on rt. Each Step is the
// five-region BT timestep.
func NewBTZone(rt *omp.RT, n int, seed uint64) Zone {
	return &btZone{s: newBTState(rt, btParams{n: n, dt: 0.05}, seed)}
}

func (z *btZone) Step() { z.s.step() }

func (z *btZone) Face(side int) []float64 { return facePlane(z.s.u[0], side) }
func (z *btZone) CoupleFace(side int, nb []float64) {
	coupleFace(z.s.f[0], z.s.u[0], side, nb)
}
func (z *btZone) Norm() float64 {
	var t float64
	for c := 0; c < btComponents; c++ {
		t += serialSumSq(z.s.u[c].data)
	}
	return math.Sqrt(t / float64(btComponents*len(z.s.u[0].data)))
}

// --- LU zone ---

type luZone struct{ s *luState }

// NewLUZone creates an SSOR-solver zone of edge n on rt. Each Step is
// one pipelined forward+backward sweep (two regions with point-to-
// point synchronization), LU's low per-step region multiplicity and
// low event volume.
func NewLUZone(rt *omp.RT, n int, seed uint64) Zone {
	return &luZone{s: newLUState(rt, luParams{n: n, c: 0.5, omega: 1.2}, seed)}
}

func (z *luZone) Step() { z.s.sweepPipelined() }

func (z *luZone) Face(side int) []float64 { return facePlane(z.s.u, side) }
func (z *luZone) CoupleFace(side int, nb []float64) {
	coupleFace(z.s.f, z.s.u, side, nb)
}
func (z *luZone) Norm() float64 { return serialRMS(z.s.u.data) }

// serialRMS is a serial RMS (zones are small; face/norm bookkeeping is
// rank-serial in the multi-zone codes too).
func serialRMS(data []float64) float64 {
	return math.Sqrt(serialSumSq(data) / float64(len(data)))
}

func serialSumSq(data []float64) float64 {
	var s float64
	for _, v := range data {
		s += v * v
	}
	return s
}
