package npb

import (
	"math"
	"testing"

	"goomp/internal/omp"
)

func runWith(t *testing.T, threads int, f func(rt *omp.RT) Result) Result {
	t.Helper()
	rt := omp.New(omp.Config{NumThreads: threads})
	defer rt.Close()
	return f(rt)
}

func TestClassValidity(t *testing.T) {
	for _, c := range []Class{ClassS, ClassW, ClassA, ClassB} {
		if !c.Valid() {
			t.Errorf("class %v invalid", c)
		}
		if got, err := ParseClass(c.String()); err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c, got, err)
		}
	}
	if Class('X').Valid() {
		t.Error("class X should be invalid")
	}
	for _, bad := range []string{"", "X", "WX", "s"} {
		if _, err := ParseClass(bad); err == nil {
			t.Errorf("ParseClass(%q) accepted", bad)
		}
	}
	if ClassS.String() != "S" {
		t.Errorf("ClassS.String() = %q", ClassS)
	}
}

func TestSuiteOrderMatchesTableI(t *testing.T) {
	want := []string{"BT", "EP", "SP", "MG", "FT", "CG", "LU-HP", "LU"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(suite), len(want))
	}
	for i, b := range suite {
		if b.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, b.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("LU-HP")
	if err != nil || b.Name != "LU-HP" {
		t.Errorf("ByName: %v, %v", b.Name, err)
	}
	if _, err := ByName("ZZ"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestEveryBenchmarkVerifiesClassS(t *testing.T) {
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res := runWith(t, 2, func(rt *omp.RT) Result { return b.Run(rt, ClassS) })
			if !res.Verified {
				t.Errorf("%s class S failed verification: %+v", b.Name, res)
			}
			if res.Regions == 0 || res.RegionCalls == 0 {
				t.Errorf("%s reports no parallel regions: %+v", b.Name, res)
			}
			if res.Name != b.Name || res.Class != ClassS || res.Threads != 2 {
				t.Errorf("%s result metadata wrong: %+v", b.Name, res)
			}
		})
	}
}

func TestChecksumsDeterministicAcrossThreadCounts(t *testing.T) {
	// The paper's harness compares runs at 1..8 threads; the kernels
	// are constructed so checksums are identical regardless of team
	// size (deterministic blocked reductions, per-batch seeding).
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			r1 := runWith(t, 1, func(rt *omp.RT) Result { return b.Run(rt, ClassS) })
			r4 := runWith(t, 4, func(rt *omp.RT) Result { return b.Run(rt, ClassS) })
			if r1.CheckValue != r4.CheckValue {
				t.Errorf("%s checksum differs across thread counts: %v vs %v",
					b.Name, r1.CheckValue, r4.CheckValue)
			}
		})
	}
}

func TestLUAndLUHPProduceSameSolution(t *testing.T) {
	lu := runWith(t, 3, func(rt *omp.RT) Result { return RunLU(rt, ClassS) })
	hp := runWith(t, 3, func(rt *omp.RT) Result { return RunLUHP(rt, ClassS) })
	if lu.CheckValue != hp.CheckValue {
		t.Errorf("LU %v != LU-HP %v: the two parallelizations must have identical numerics",
			lu.CheckValue, hp.CheckValue)
	}
	// ... but radically different region-call counts: that contrast is
	// the whole point of the LU-HP column in Table I.
	if hp.RegionCalls < 10*lu.RegionCalls {
		t.Errorf("LU-HP calls (%d) not ≫ LU calls (%d)", hp.RegionCalls, lu.RegionCalls)
	}
}

func TestEPDetails(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	res := RunEPFull(rt, ClassS)
	if !res.Verified {
		t.Fatalf("EP failed: %+v", res.Result)
	}
	// Annuli counts decay outward: bin 0 dominates.
	if res.Counts[0] < res.Counts[1] || res.Counts[1] < res.Counts[2] {
		t.Errorf("annuli counts not decaying: %v", res.Counts)
	}
	var sum int64
	for _, c := range res.Counts {
		sum += c
	}
	if sum != res.Accepted {
		t.Errorf("counts sum %d != accepted %d", sum, res.Accepted)
	}
	// EP has exactly 3 parallel regions, each called once (Table I).
	if res.Regions != 3 || res.RegionCalls != 3 {
		t.Errorf("EP regions/calls = %d/%d, want 3/3", res.Regions, res.RegionCalls)
	}
}

func TestEPSerialMatchesParallel(t *testing.T) {
	// A serial recomputation of one batch must agree exactly with the
	// parallel run's tallies for that batch (seed jumping correctness).
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()
	par := RunEPFull(rt, ClassS)

	g := NewLCG(DefaultSeed)
	var sx, sy float64
	var counts [epAnnuli]int64
	pairs := epPairs(ClassS)
	for p := 0; p < pairs; p++ {
		gx, gy, ok := GaussianPair(g.Next(), g.Next())
		if !ok {
			continue
		}
		m := math.Max(math.Abs(gx), math.Abs(gy))
		l := int(m)
		if l >= epAnnuli {
			l = epAnnuli - 1
		}
		counts[l]++
		sx += gx
		sy += gy
	}
	for l := range counts {
		if counts[l] != par.Counts[l] {
			t.Errorf("annulus %d: serial %d vs parallel %d", l, counts[l], par.Counts[l])
		}
	}
	// Sums may differ in rounding only through batch-ordered
	// accumulation; batches are summed in index order both times.
	if math.Abs(sx-par.Sx) > 1e-6 || math.Abs(sy-par.Sy) > 1e-6 {
		t.Errorf("sums differ: serial (%v,%v) vs parallel (%v,%v)", sx, sy, par.Sx, par.Sy)
	}
}

func TestCGDetails(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	res := RunCGFull(rt, ClassS)
	if !res.Verified {
		t.Fatalf("CG failed: residual %v, zeta %v", res.Residual, res.Zeta)
	}
	if res.Zeta <= 10 {
		t.Errorf("zeta = %v, want > shift (10)", res.Zeta)
	}
	if res.Residual > 1e-8 {
		t.Errorf("residual = %v, want < 1e-8", res.Residual)
	}
}

func TestCGMatrixIsSymmetric(t *testing.T) {
	p := cgParamsFor(ClassS)
	p.n = 200
	a := buildCG(p)
	// Gather entries into a map and check A[i][j] == A[j][i].
	entries := make(map[[2]int32]float64)
	for i := 0; i < a.n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			entries[[2]int32{int32(i), a.col[k]}] += a.val[k]
		}
	}
	for key, v := range entries {
		if w, ok := entries[[2]int32{key[1], key[0]}]; !ok || math.Abs(v-w) > 1e-12 {
			t.Fatalf("asymmetry at (%d,%d): %v vs %v", key[0], key[1], v, w)
		}
	}
}

func TestCGMatrixDiagonallyDominant(t *testing.T) {
	p := cgParamsFor(ClassS)
	p.n = 300
	a := buildCG(p)
	for i := 0; i < a.n; i++ {
		var diag, off float64
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if a.col[k] == int32(i) {
				diag += a.val[k]
			} else {
				off += math.Abs(a.val[k])
			}
		}
		if diag < off+p.shift-1e-9 {
			t.Fatalf("row %d not dominant: diag %v, off %v", i, diag, off)
		}
	}
}

func TestMGResidualHistory(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	res := RunMGFull(rt, ClassS)
	if !res.Verified {
		t.Fatalf("MG failed: norms %v", res.Norms)
	}
	if res.FinalNorm >= res.InitialNorm*0.1 {
		t.Errorf("weak contraction: %v -> %v", res.InitialNorm, res.FinalNorm)
	}
}

func TestFTRoundTripAndChecksums(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	res := RunFTFull(rt, ClassS)
	if !res.Verified {
		t.Fatalf("FT failed: roundtrip error %v", res.RoundTripError)
	}
	if len(res.Checksums) != ftParamsFor(ClassS).steps {
		t.Errorf("checksums = %d, want %d", len(res.Checksums), ftParamsFor(ClassS).steps)
	}
}

func TestSPAndBTConverge(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	sp := RunSPFull(rt, ClassS)
	if !sp.Verified || sp.LastIncrement >= sp.FirstIncrement {
		t.Errorf("SP not converging: %v -> %v", sp.FirstIncrement, sp.LastIncrement)
	}
	bt := RunBTFull(rt, ClassS)
	if !bt.Verified || bt.LastIncrement >= bt.FirstIncrement {
		t.Errorf("BT not converging: %v -> %v", bt.FirstIncrement, bt.LastIncrement)
	}
}

func TestTableIShapeClassS(t *testing.T) {
	// The ordering property the paper's Table I exhibits must hold at
	// every class: LU-HP has by far the most region calls; EP the
	// fewest.
	calls := map[string]uint64{}
	for _, b := range Suite() {
		res := runWith(t, 2, func(rt *omp.RT) Result { return b.Run(rt, ClassS) })
		calls[b.Name] = res.RegionCalls
	}
	for name, c := range calls {
		if name == "LU-HP" {
			continue
		}
		if calls["LU-HP"] <= c {
			t.Errorf("LU-HP calls (%d) not above %s (%d)", calls["LU-HP"], name, c)
		}
		if name != "EP" && calls["EP"] >= c {
			t.Errorf("EP calls (%d) not below %s (%d)", calls["EP"], name, c)
		}
	}
}

func TestBlockSumMatchesSerial(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 3})
	defer rt.Close()
	n := 10000
	vals := make([]float64, n)
	g := NewLCG(DefaultSeed)
	var want float64
	for i := range vals {
		vals[i] = g.Next()
	}
	// Serial block-ordered sum (same association as blockSum).
	for b := 0; b < n; b += dotBlock {
		var s float64
		for i := b; i < b+dotBlock && i < n; i++ {
			s += vals[i]
		}
		want += s
	}
	got := blockSum(rt, n, func(i int) float64 { return vals[i] })
	if got != want {
		t.Errorf("blockSum = %v, want %v (bitwise)", got, want)
	}
}
