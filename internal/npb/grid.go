package npb

// Shared machinery for the structured-grid solvers (BT, SP, LU): a
// dense 3D scalar field with Dirichlet boundaries, tridiagonal and
// pentadiagonal line solvers (Thomas algorithm and its 5-band
// extension). BT's block-tridiagonal solver is in block.go.

// field3 is an n×n×n scalar field, k-fastest.
type field3 struct {
	n    int
	data []float64
}

func newField3(n int) *field3 { return &field3{n: n, data: make([]float64, n*n*n)} }

// lap7 returns the 7-point Laplacian Σ neighbors − 6·center with
// Dirichlet (zero) exterior.
func (f *field3) lap7(i, j, k int) float64 {
	n := f.n
	c := f.data
	at := func(a, b, d int) float64 {
		if a < 0 || a >= n || b < 0 || b >= n || d < 0 || d >= n {
			return 0
		}
		return c[(a*n+b)*n+d]
	}
	return at(i-1, j, k) + at(i+1, j, k) + at(i, j-1, k) + at(i, j+1, k) +
		at(i, j, k-1) + at(i, j, k+1) - 6*at(i, j, k)
}

// triSolve solves the constant-coefficient tridiagonal system with
// bands (a, b, a) in place: b·x_i + a·(x_{i−1}+x_{i+1}) = d_i, with
// Dirichlet exterior. d is overwritten with the solution. cScratch
// holds the forward-elimination coefficients.
func triSolve(a, b float64, d, cScratch []float64) {
	n := len(d)
	if n == 0 {
		return
	}
	cp := cScratch
	beta := b
	d[0] /= beta
	for i := 1; i < n; i++ {
		cp[i-1] = a / beta
		beta = b - a*cp[i-1]
		d[i] = (d[i] - a*d[i-1]) / beta
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= cp[i] * d[i+1]
	}
}

// pentaScratch is the scratch requirement multiplier of pentaSolve.
const pentaScratch = 5

// pentaSolve solves the constant-coefficient pentadiagonal system with
// bands (e, a, b, a, e) in place by banded Gaussian elimination
// without pivoting (valid: the systems built here are diagonally
// dominant). d is overwritten with the solution; w needs
// pentaScratch·len(d) scratch.
func pentaSolve(e, a, b float64, d, w []float64) {
	n := len(d)
	if n == 0 {
		return
	}
	l2 := w[:n]
	l1 := w[n : 2*n]
	dg := w[2*n : 3*n]
	u1 := w[3*n : 4*n]
	u2 := w[4*n : 5*n]
	for i := 0; i < n; i++ {
		l2[i], l1[i], dg[i], u1[i], u2[i] = e, a, b, a, e
	}
	// Rows 0 and 1 have no l2/l1 beyond the matrix edge.
	for i := 0; i < n-1; i++ {
		pivot := dg[i]
		f := l1[i+1] / pivot
		dg[i+1] -= f * u1[i]
		u1[i+1] -= f * u2[i]
		d[i+1] -= f * d[i]
		if i+2 < n {
			f2 := l2[i+2] / pivot
			l1[i+2] -= f2 * u1[i]
			dg[i+2] -= f2 * u2[i]
			d[i+2] -= f2 * d[i]
		}
	}
	d[n-1] /= dg[n-1]
	if n >= 2 {
		d[n-2] = (d[n-2] - u1[n-2]*d[n-1]) / dg[n-2]
	}
	for i := n - 3; i >= 0; i-- {
		d[i] = (d[i] - u1[i]*d[i+1] - u2[i]*d[i+2]) / dg[i]
	}
}
