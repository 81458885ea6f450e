package npb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// --- line solver unit tests ---

func triMulVec(a, b float64, x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = b * x[i]
		if i > 0 {
			out[i] += a * x[i-1]
		}
		if i < n-1 {
			out[i] += a * x[i+1]
		}
	}
	return out
}

func TestTriSolveAgainstMultiply(t *testing.T) {
	const n = 17
	a, b := -0.3, 2.0
	want := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range want {
		want[i] = rng.Float64() - 0.5
	}
	d := triMulVec(a, b, want)
	triSolve(a, b, d, make([]float64, n))
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestTriSolveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%40)
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64() - 0.5
		b := 2*math.Abs(a) + 1 + rng.Float64() // diagonally dominant
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Float64() - 0.5
		}
		d := triMulVec(a, b, want)
		triSolve(a, b, d, make([]float64, n))
		for i := range want {
			if math.Abs(d[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func pentaMulVec(e, a, b float64, x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	at := func(i int) float64 {
		if i < 0 || i >= n {
			return 0
		}
		return x[i]
	}
	for i := 0; i < n; i++ {
		out[i] = e*at(i-2) + a*at(i-1) + b*at(i) + a*at(i+1) + e*at(i+2)
	}
	return out
}

func TestPentaSolveAgainstMultiply(t *testing.T) {
	const n = 23
	e, a, b := 0.05, -0.4, 2.5
	want := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range want {
		want[i] = rng.Float64() - 0.5
	}
	d := pentaMulVec(e, a, b, want)
	pentaSolve(e, a, b, d, make([]float64, pentaScratch*n))
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestPentaSolveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%30)
		rng := rand.New(rand.NewSource(seed))
		e := 0.3 * (rng.Float64() - 0.5)
		a := rng.Float64() - 0.5
		b := 2*(math.Abs(a)+math.Abs(e)) + 1 + rng.Float64()
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Float64() - 0.5
		}
		d := pentaMulVec(e, a, b, want)
		pentaSolve(e, a, b, d, make([]float64, pentaScratch*n))
		for i := range want {
			if math.Abs(d[i]-want[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPentaSolveTinySystems(t *testing.T) {
	for n := 1; n <= 4; n++ {
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i + 1)
		}
		e, a, b := 0.1, -0.5, 3.0
		d := pentaMulVec(e, a, b, want)
		pentaSolve(e, a, b, d, make([]float64, pentaScratch*n))
		for i := range want {
			if math.Abs(d[i]-want[i]) > 1e-10 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, d[i], want[i])
			}
		}
	}
	pentaSolve(0.1, -0.5, 3.0, nil, nil) // n=0 must not panic
	triSolve(-0.5, 3.0, nil, nil)
}

func TestFFTLineKnownTransform(t *testing.T) {
	// FFT of a constant is an impulse at bin 0.
	a := make([]complex128, 8)
	for i := range a {
		a[i] = 1
	}
	fftLine(a, +1)
	if math.Abs(real(a[0])-8) > 1e-12 || math.Abs(imag(a[0])) > 1e-12 {
		t.Errorf("bin 0 = %v, want 8", a[0])
	}
	for i := 1; i < 8; i++ {
		if math.Hypot(real(a[i]), imag(a[i])) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, a[i])
		}
	}
}

func TestFFTLineRoundTripProperty(t *testing.T) {
	f := func(seed int64, logn uint8) bool {
		n := 1 << (1 + logn%6) // 2..64
		rng := rand.New(rand.NewSource(seed))
		orig := make([]complex128, n)
		for i := range orig {
			orig[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		a := make([]complex128, n)
		copy(a, orig)
		fftLine(a, +1)
		fftLine(a, -1)
		scale := 1 / float64(n)
		for i := range a {
			got := a[i] * complex(scale, 0)
			if math.Hypot(real(got-orig[i]), imag(got-orig[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFFTLineParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 32
	a := make([]complex128, n)
	var timeEnergy float64
	for i := range a {
		a[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		timeEnergy += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	fftLine(a, +1)
	var freqEnergy float64
	for i := range a {
		freqEnergy += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	if math.Abs(freqEnergy-float64(n)*timeEnergy) > 1e-9*freqEnergy {
		t.Errorf("Parseval violated: %v vs %v", freqEnergy, float64(n)*timeEnergy)
	}
}

func TestWrap(t *testing.T) {
	if wrap(-1, 8) != 7 || wrap(8, 8) != 0 || wrap(3, 8) != 3 {
		t.Error("wrap is wrong")
	}
}
