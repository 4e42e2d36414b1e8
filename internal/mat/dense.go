// Package mat provides the small linear-algebra kernel behind the GCN:
// dense row-major matrices, a CSR sparse matrix for normalized adjacency
// operators, and the handful of operations training needs (matmul, SpMM,
// transpose, elementwise maps, softmax). Everything is float64 and
// deterministic given a seeded rand source.
package mat

import (
	"fmt"
	"math"
	"math/rand"

	"dsplacer/internal/par"
)

// Dense is a row-major dense matrix.
type Dense struct {
	R, C int
	Data []float64
}

// NewDense returns an R×C zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dims %dx%d", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices (all must share a length).
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.R, m.C)
	copy(c.Data, m.Data)
	return c
}

// Randn fills m with N(0, std²) samples from rng (Glorot-style init is built
// on top of this in the gcn package).
func (m *Dense) Randn(rng *rand.Rand, std float64) *Dense {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

func (m *Dense) dimsMatch(o *Dense) {
	if m.R != o.R || m.C != o.C {
		panic(fmt.Sprintf("mat: dim mismatch %dx%d vs %dx%d", m.R, m.C, o.R, o.C))
	}
}

// Add returns m + o.
func (m *Dense) Add(o *Dense) *Dense {
	m.dimsMatch(o)
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace accumulates o into m.
func (m *Dense) AddInPlace(o *Dense) {
	m.dimsMatch(o)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub returns m - o.
func (m *Dense) Sub(o *Dense) *Dense {
	m.dimsMatch(o)
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s*m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Hadamard returns the elementwise product m ⊙ o.
func (m *Dense) Hadamard(o *Dense) *Dense {
	m.dimsMatch(o)
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] *= v
	}
	return out
}

// Apply returns f applied elementwise.
func (m *Dense) Apply(f func(float64) float64) *Dense {
	out := m.Clone()
	for i, v := range out.Data {
		out.Data[i] = f(v)
	}
	return out
}

// T returns the transpose.
func (m *Dense) T() *Dense {
	out := NewDense(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Data[j*out.C+i] = m.Data[i*m.C+j]
		}
	}
	return out
}

// Mul returns m × o, sharded over rows like the CSR kernels: each output
// row is one goroutine's in-order sum, so the product is bit-identical at
// any GOMAXPROCS.
func (m *Dense) Mul(o *Dense) *Dense {
	if m.C != o.R {
		panic(fmt.Sprintf("mat: mul dims %dx%d × %dx%d", m.R, m.C, o.R, o.C))
	}
	out := NewDense(m.R, o.C)
	par.ForEachShard(m.R, par.DefaultShards, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			mi := m.Row(i)
			oi := out.Row(i)
			for k, a := range mi {
				if a == 0 {
					continue
				}
				ok := o.Row(k)
				for j, b := range ok {
					oi[j] += a * b
				}
			}
		}
	})
	return out
}

// AddRowVec adds the 1×C vector v to every row (bias broadcast).
func (m *Dense) AddRowVec(v []float64) *Dense {
	if len(v) != m.C {
		panic("mat: bias length mismatch")
	}
	out := m.Clone()
	for i := 0; i < m.R; i++ {
		r := out.Row(i)
		for j := range r {
			r[j] += v[j]
		}
	}
	return out
}

// ColSums returns the per-column sums (bias gradients).
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		r := m.Row(i)
		for j, v := range r {
			out[j] += v
		}
	}
	return out
}

// RowSoftmax returns row-wise softmax with the usual max-shift for
// stability.
func (m *Dense) RowSoftmax() *Dense {
	out := NewDense(m.R, m.C)
	for i := 0; i < m.R; i++ {
		in, o := m.Row(i), out.Row(i)
		maxv := math.Inf(-1)
		for _, v := range in {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range in {
			e := math.Exp(v - maxv)
			o[j] = e
			sum += e
		}
		for j := range o {
			o[j] /= sum
		}
	}
	return out
}

// MaxAbsDiff returns the largest |m-o| entry; handy for tests.
func (m *Dense) MaxAbsDiff(o *Dense) float64 {
	m.dimsMatch(o)
	worst := 0.0
	for i, v := range m.Data {
		if d := math.Abs(v - o.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}
