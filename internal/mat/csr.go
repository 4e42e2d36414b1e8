package mat

import (
	"fmt"
	"sort"

	"dsplacer/internal/par"
)

// CSR is a compressed-sparse-row matrix, used for the GCN's normalized
// adjacency operator Â = D^{-1/2}(A+I)D^{-1/2}, which is far too large to
// hold densely for netlist-sized graphs.
type CSR struct {
	R, C   int
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// COO is one (row, col, value) triple for CSR construction.
type COO struct {
	Row, Col int
	Val      float64
}

// NewCSR builds a CSR matrix from unordered triples; duplicate (row,col)
// entries are summed.
func NewCSR(r, c int, entries []COO) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= r || e.Col < 0 || e.Col >= c {
			panic(fmt.Sprintf("mat: COO entry (%d,%d) out of %dx%d", e.Row, e.Col, r, c))
		}
	}
	sorted := make([]COO, len(entries))
	copy(sorted, entries)
	// Builders like the gsp Laplacian emit entries already grouped by row;
	// detecting that turns the global O(nnz log nnz) comparator sort into
	// per-row sorts of degree-sized segments, which is where CSR assembly
	// time went on netlist graphs.
	rowSorted := true
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Row < sorted[i-1].Row {
			rowSorted = false
			break
		}
	}
	if rowSorted {
		for i := 0; i < len(sorted); {
			j := i + 1
			for j < len(sorted) && sorted[j].Row == sorted[i].Row {
				j++
			}
			sortSegmentByCol(sorted[i:j])
			i = j
		}
	} else {
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Row != sorted[j].Row {
				return sorted[i].Row < sorted[j].Row
			}
			return sorted[i].Col < sorted[j].Col
		})
	}
	m := &CSR{R: r, C: c, RowPtr: make([]int, r+1),
		ColIdx: make([]int, 0, len(sorted)), Val: make([]float64, 0, len(sorted))}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for i := 0; i < r; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// sortSegmentByCol orders one row's entries by column: insertion sort for
// degree-sized segments, falling back to sort.Slice for high-fanout rows
// where quadratic insertion would bite.
func sortSegmentByCol(seg []COO) {
	if len(seg) > 48 {
		sort.Slice(seg, func(i, j int) bool { return seg[i].Col < seg[j].Col })
		return
	}
	for i := 1; i < len(seg); i++ {
		e := seg[i]
		j := i - 1
		for j >= 0 && seg[j].Col > e.Col {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = e
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = m·x (SpMV) into the caller-provided slice, sharded
// over the internal/par worker pool. Rows are split into par.DefaultShards
// fixed contiguous ranges; every row's dot product accumulates in stored-
// column order on one goroutine and lands in its own output slot, so the
// result is bit-identical at any GOMAXPROCS. Reusing y across calls keeps
// the hot path (the placer's per-iteration dataflow-force assembly)
// allocation-free.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.C || len(y) != m.R {
		panic(fmt.Sprintf("mat: spmv dims %dx%d × %d into %d", m.R, m.C, len(x), len(y)))
	}
	par.ForEachShard(m.R, par.DefaultShards, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				s += m.Val[p] * x[m.ColIdx[p]]
			}
			y[i] = s
		}
	})
}

// MulDensePar returns m × d (SpMM) computed with the same fixed row-sharded
// schedule as MulVec: each output row is accumulated in stored-column
// order by exactly one goroutine, so the product is bit-identical at any
// GOMAXPROCS. The GCN forward/backward passes and the gsp Chebyshev
// recursion both run on this kernel.
func (m *CSR) MulDensePar(d *Dense) *Dense {
	out := NewDense(m.R, d.C)
	m.MulDenseParInto(d, out)
	return out
}

// MulDenseParInto is MulDensePar with a caller-owned output (out must be
// m.R × d.C and is fully overwritten), so iterated filters reuse their
// recursion buffers allocation-free.
func (m *CSR) MulDenseParInto(d, out *Dense) {
	if m.C != d.R {
		panic(fmt.Sprintf("mat: spmm dims %dx%d × %dx%d", m.R, m.C, d.R, d.C))
	}
	if out.R != m.R || out.C != d.C {
		panic(fmt.Sprintf("mat: spmm out is %dx%d, want %dx%d", out.R, out.C, m.R, d.C))
	}
	par.ForEachShard(m.R, par.DefaultShards, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			oi := out.Row(i)
			p0, p1 := m.RowPtr[i], m.RowPtr[i+1]
			if p0 == p1 {
				for j := range oi {
					oi[j] = 0
				}
				continue
			}
			// The first stored entry initializes the output row, so dense
			// rows skip the separate zero-fill pass; reslicing oi to the
			// input width lets the compiler drop the inner bounds checks.
			v := m.Val[p0]
			dr := d.Row(m.ColIdx[p0])
			oi = oi[:len(dr)]
			for j, b := range dr {
				oi[j] = v * b
			}
			for p := p0 + 1; p < p1; p++ {
				v = m.Val[p]
				dr = d.Row(m.ColIdx[p])
				for j, b := range dr {
					oi[j] += v * b
				}
			}
		}
	})
}

// ToDense materializes m; intended for tests on small matrices.
func (m *CSR) ToDense() *Dense {
	out := NewDense(m.R, m.C)
	for i := 0; i < m.R; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Set(i, m.ColIdx[p], m.Val[p])
		}
	}
	return out
}
