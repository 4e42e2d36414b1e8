package mat

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a mutable view")
	}
	c := m.Clone()
	c.Set(0, 0, 7)
	if m.At(0, 0) == 7 {
		t.Fatal("Clone aliases original")
	}
}

func TestFromRowsAndT(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.R != 3 || mt.C != 2 {
		t.Fatalf("T dims %dx%d", mt.R, mt.C)
	}
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatal("transpose wrong")
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := a.Add(b).At(1, 1); got != 12 {
		t.Fatalf("add=%v", got)
	}
	if got := a.Sub(b).At(0, 0); got != -4 {
		t.Fatalf("sub=%v", got)
	}
	if got := a.Scale(3).At(1, 0); got != 9 {
		t.Fatalf("scale=%v", got)
	}
	if got := a.Hadamard(b).At(0, 1); got != 12 {
		t.Fatalf("hadamard=%v", got)
	}
	if got := a.Apply(func(v float64) float64 { return v * v }).At(1, 1); got != 16 {
		t.Fatalf("apply=%v", got)
	}
	ac := a.Clone()
	ac.AddInPlace(b)
	if ac.At(0, 0) != 6 {
		t.Fatal("AddInPlace broken")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("mul=%v", got.Data)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewDense(4, 3).Randn(rng, 1)
		b := NewDense(3, 5).Randn(rng, 1)
		c := NewDense(5, 2).Randn(rng, 1)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.MaxAbsDiff(right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVecAndColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := m.AddRowVec([]float64{10, 20})
	if got.At(0, 0) != 11 || got.At(1, 1) != 24 {
		t.Fatalf("AddRowVec=%v", got.Data)
	}
	cs := m.ColSums()
	if cs[0] != 4 || cs[1] != 6 {
		t.Fatalf("ColSums=%v", cs)
	}
}

func TestRowSoftmax(t *testing.T) {
	m := FromRows([][]float64{{0, 0}, {1000, 1000}, {1, 3}})
	s := m.RowSoftmax()
	for i := 0; i < s.R; i++ {
		sum := 0.0
		for j := 0; j < s.C; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if math.Abs(s.At(0, 0)-0.5) > 1e-12 {
		t.Fatal("uniform logits must give 0.5")
	}
	if !(s.At(2, 1) > s.At(2, 0)) {
		t.Fatal("softmax ordering wrong")
	}
}

func TestDimPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := NewDense(2, 2)
	b := NewDense(3, 3)
	assertPanics("add", func() { a.Add(b) })
	assertPanics("mul", func() { a.Mul(b) })
	assertPanics("bias", func() { a.AddRowVec([]float64{1}) })
}

func TestCSRConstructionAndSpMM(t *testing.T) {
	// [[0 2 0], [1 0 3]] with a duplicate entry summed at (1,0).
	m := NewCSR(2, 3, []COO{
		{0, 1, 2}, {1, 2, 3}, {1, 0, 0.5}, {1, 0, 0.5},
	})
	if m.NNZ() != 3 {
		t.Fatalf("nnz=%d", m.NNZ())
	}
	d := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	got := m.MulDensePar(d)
	want := FromRows([][]float64{{0, 2}, {4, 3}})
	if got.MaxAbsDiff(want) != 0 {
		t.Fatalf("spmm=%v", got.Data)
	}
	dense := m.ToDense()
	if dense.At(1, 0) != 1 || dense.At(0, 1) != 2 {
		t.Fatal("ToDense wrong")
	}
	if !slices.Equal(got.Data, dense.Mul(d).Data) {
		t.Fatalf("spmm %v differs from the dense product", got.Data)
	}
}

// Property: SpMM equals the dense multiply of the materialized matrix
// bitwise on random sparse matrices: a CSR row stores its columns in
// ascending order, the order in which Dense.Mul meets the row's non-zeros,
// so both sum the same products in the same order.
func TestSpMMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 6, 5, 4
		var entries []COO
		for i := 0; i < r; i++ {
			for j := 0; j < k; j++ {
				if rng.Float64() < 0.4 {
					entries = append(entries, COO{i, j, rng.NormFloat64()})
				}
			}
		}
		s := NewCSR(r, k, entries)
		d := NewDense(k, c).Randn(rng, 1)
		return slices.Equal(s.MulDensePar(d).Data, s.ToDense().Mul(d).Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []COO{{5, 0, 1}})
}

// randCSR builds a random sparse r×c matrix for the Par-kernel suites.
func randCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	var entries []COO
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				entries = append(entries, COO{i, j, rng.NormFloat64()})
			}
		}
	}
	return NewCSR(r, c, entries)
}

// Property: the sharded SpMV/SpMM kernels compute exactly what Dense.Mul
// computes on the materialized matrix — same row, same column order of the
// non-zeros — so equality must be bitwise, not approximate.
func TestParKernelsMatchBitwise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, w := 40, 30, 3
		m := randCSR(rng, r, c, 0.2)
		dense := m.ToDense()
		xv := NewDense(c, 1).Randn(rng, 1)
		y := make([]float64, r)
		m.MulVec(xv.Data, y)
		if !slices.Equal(y, dense.Mul(xv).Data) {
			return false
		}
		d := NewDense(c, w).Randn(rng, 1)
		return slices.Equal(m.MulDensePar(d).Data, dense.Mul(d).Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The Par kernels must be bit-identical at any worker count: fixed shard
// boundaries (par.DefaultShards), one goroutine per output row.
func TestParKernelsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randCSR(rng, 300, 300, 0.05)
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	d := NewDense(300, 9).Randn(rng, 1)

	run := func(procs int) ([]float64, *Dense) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		y := make([]float64, 300)
		m.MulVec(x, y)
		return y, m.MulDensePar(d)
	}
	y1, d1 := run(1)
	y8, d8 := run(8)
	for i := range y1 {
		if y1[i] != y8[i] {
			t.Fatalf("MulVec differs at row %d: %v vs %v", i, y1[i], y8[i])
		}
	}
	for i := range d1.Data {
		if d1.Data[i] != d8.Data[i] {
			t.Fatalf("MulDensePar differs at %d: %v vs %v", i, d1.Data[i], d8.Data[i])
		}
	}
}

// MulDenseParInto must fully overwrite stale output contents.
func TestMulDenseParIntoOverwrites(t *testing.T) {
	m := NewCSR(2, 2, []COO{{0, 0, 2}, {1, 1, 3}})
	d := FromRows([][]float64{{1, 2}, {3, 4}})
	out := FromRows([][]float64{{99, 99}, {99, 99}})
	m.MulDenseParInto(d, out)
	want := FromRows([][]float64{{2, 4}, {9, 12}})
	if out.MaxAbsDiff(want) != 0 {
		t.Fatalf("got %v", out.Data)
	}
}
