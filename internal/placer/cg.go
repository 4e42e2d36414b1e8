package placer

import "math"

// Sparse symmetric positive-definite solver behind the cold-start
// wirelength seed (solveQuadratic): Jacobi-preconditioned conjugate
// gradient over a CSR matrix representation.

// spdMatrix is a symmetric matrix stored as its diagonal plus its
// off-diagonal entries in one flat CSR; only the entries touching movable
// variables exist. addConnection records each stamp; the first solveCG
// counts the stamps per row and fills the rows, each in stamp order, so
// every row of mulVec sums its terms in the order they were stamped.
type spdMatrix struct {
	diag   []float64
	stamps []offDiag // recorded connections, laid out by compile
	rowPtr []int
	cols   []int32
	vals   []float64
}

// offDiag is one recorded connection: entry v at (i, j) and at (j, i).
type offDiag struct {
	i, j int32
	v    float64
}

func newSPD(n int) *spdMatrix {
	return &spdMatrix{diag: make([]float64, n)}
}

// addConnection adds weight w between variables i and j (both movable):
// +w to both diagonals, −w off-diagonal, the standard quadratic net stamp.
// Connections must be added before solveCG runs.
func (m *spdMatrix) addConnection(i, j int, w float64) {
	m.diag[i] += w
	m.diag[j] += w
	m.stamps = append(m.stamps, offDiag{i: int32(i), j: int32(j), v: -w})
}

// addAnchor attaches variable i to a fixed coordinate with weight w; the
// fixed part goes to the right-hand side.
func (m *spdMatrix) addAnchor(i int, w float64, rhs []float64, fixedCoord float64) {
	m.diag[i] += w
	rhs[i] += w * fixedCoord
}

// compile lays the recorded stamps out as CSR rows: a stamp (i, j) appends
// j to row i, then i to row j, as per-row appends in stamp order would.
func (m *spdMatrix) compile() {
	n := len(m.diag)
	m.rowPtr = make([]int, n+1)
	for _, s := range m.stamps {
		m.rowPtr[s.i+1]++
		m.rowPtr[s.j+1]++
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	m.cols = make([]int32, m.rowPtr[n])
	m.vals = make([]float64, m.rowPtr[n])
	next := append([]int(nil), m.rowPtr[:n]...)
	for _, s := range m.stamps {
		m.cols[next[s.i]], m.vals[next[s.i]] = s.j, s.v
		next[s.i]++
		m.cols[next[s.j]], m.vals[next[s.j]] = s.i, s.v
		next[s.j]++
	}
	m.stamps = nil
}

// mulVec computes y = M·x.
func (m *spdMatrix) mulVec(x, y []float64) {
	for i := range y {
		s := m.diag[i] * x[i]
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		vals := m.vals[lo:hi]
		for k, j := range m.cols[lo:hi] {
			s += vals[k] * x[j]
		}
		y[i] = s
	}
}

// solveCG runs preconditioned conjugate gradient from the initial guess x,
// overwriting x with the solution. Iterations are capped at maxIter and the
// loop stops early once the residual shrinks by relTol.
//
// Degenerate systems — anchor-free rows whose preconditioner floor blows up
// the first step, or extreme weights that overflow the residual dot
// products — can drive CG's scalars (and with them x) to NaN/Inf. Every
// scalar and the iterate itself are guarded: on the first non-finite value
// the solver restores the best (lowest finite residual) iterate seen and
// bails, so callers never receive poisoned coordinates.
func (m *spdMatrix) solveCG(b, x []float64, maxIter int, relTol float64) {
	if m.rowPtr == nil {
		m.compile()
	}
	n := len(b)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	best := make([]float64, n)
	copy(best, x)
	restore := func() { copy(x, best) }

	m.mulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	prec := func(dst, src []float64) {
		for i := range dst {
			d := m.diag[i]
			if d <= 1e-12 {
				d = 1e-12
			}
			dst[i] = src[i] / d
		}
	}
	prec(z, r)
	copy(p, z)
	rz := dot(r, z)
	r0 := dot(r, r)
	if r0 == 0 {
		return
	}
	if !isFinite(r0) {
		return // initial x is already the best iterate we have
	}
	bestRR := r0
	for iter := 0; iter < maxIter; iter++ {
		m.mulVec(p, ap)
		pap := dot(p, ap)
		if pap <= 0 || !isFinite(pap) {
			break
		}
		alpha := rz / pap
		if !isFinite(alpha) {
			restore()
			return
		}
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rr := dot(r, r)
		if !isFinite(rr) || !allFinite(x) {
			restore()
			return
		}
		if rr < bestRR {
			bestRR = rr
			copy(best, x)
		}
		if rr < relTol*relTol*r0 {
			break
		}
		prec(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		if !isFinite(beta) {
			restore()
			return
		}
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func allFinite(xs []float64) bool {
	for _, v := range xs {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
