package npb

import (
	"testing"

	"goomp/internal/omp"
)

// TestAllSweepVariantsAgree: the pipelined (LU and the multi-zone LU)
// and hyperplane (LU-HP) sweeps are two schedules of the same
// Gauss–Seidel dependency DAG, so after any number of sweeps both must
// hold bitwise-identical solutions.
func TestAllSweepVariantsAgree(t *testing.T) {
	p := luParamsFor(ClassS)
	results := make([][]float64, 2)
	for v := range results {
		rt := omp.New(omp.Config{NumThreads: 3})
		s := newLUState(rt, p, DefaultSeed)
		for it := 0; it < 5; it++ {
			if v == 0 {
				s.sweepPipelined()
			} else {
				s.sweepHyperplane()
			}
		}
		results[v] = append([]float64(nil), s.u.data...)
		rt.Close()
	}
	for x := range results[0] {
		if results[1][x] != results[0][x] {
			t.Fatalf("hyperplane diverges from pipelined at cell %d: %v vs %v",
				x, results[1][x], results[0][x])
		}
	}
}

// TestPipelinedSweepThreadCounts: the pipeline must be correct for any
// team size, including teams larger than the grid dimension.
func TestPipelinedSweepThreadCounts(t *testing.T) {
	p := luParamsFor(ClassS)
	var ref []float64
	for _, threads := range []int{1, 2, 4, 9} {
		rt := omp.New(omp.Config{NumThreads: threads})
		s := newLUState(rt, p, DefaultSeed)
		s.sweepPipelined()
		s.sweepPipelined()
		if ref == nil {
			ref = append([]float64(nil), s.u.data...)
		} else {
			for x := range ref {
				if s.u.data[x] != ref[x] {
					t.Fatalf("threads=%d: cell %d differs", threads, x)
					break
				}
			}
		}
		rt.Close()
	}
}

// TestLUResidualHistory: the SSOR solver must contract the residual.
func TestLUResidualHistory(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	res := runLU(rt, ClassS, false)
	if !res.Verified {
		t.Fatalf("LU failed: %v -> %v", res.InitialResidual, res.FinalResidual)
	}
	if res.FinalResidual >= res.InitialResidual*0.01 {
		t.Errorf("weak contraction: %v -> %v", res.InitialResidual, res.FinalResidual)
	}
}
