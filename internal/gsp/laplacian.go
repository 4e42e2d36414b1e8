// Package gsp is the graph-signal-processing feature estimator (after "The
// Power of Graph Signal Processing for Chip Placement Acceleration"):
// instead of BFS/Brandes sweeps from every node, per-node centrality
// surrogates are estimated from a small batch of random ±1 probe vectors
// pushed through a degree-K Chebyshev polynomial filter on the netlist's
// combinatorial Laplacian. The whole extraction is K·(probes+1) sparse
// matvecs — O(K·p·M) total, independent of how many BFS sources the exact
// metrics would need — and every matvec runs on the deterministic
// row-sharded kernels of internal/mat, so the output is bit-identical at
// any GOMAXPROCS.
//
// The filters used here are diffusion responses h_s(λ) = (1-λ/λmax)^s —
// polynomials of degree s, which the degree-K Chebyshev expansion (K ≥ s)
// represents exactly (quadrature over polynomials is exact), so there is no
// truncation error on top of the probe-sampling error. The operator
// S = I - L/λmax is symmetric doubly stochastic (λmax ≥ 2·maxdeg bounds the
// spectrum), so S^s x is s steps of a uniformized heat diffusion: central
// nodes shed probe mass quickly, peripheral nodes retain it, and the
// Hutchinson diagonal estimator diag(S^s) ≈ mean_j z_j ⊙ S^s z_j turns
// retained mass into closeness/eccentricity surrogates.
package gsp

import (
	"context"
	"fmt"
	"math"

	"dsplacer/internal/graph"
	"dsplacer/internal/mat"
	"dsplacer/internal/stage"
)

// Laplacian is the combinatorial Laplacian L = D - A of an undirected graph
// in CSR form, together with the spectral upper bound its Chebyshev filters
// are scaled by.
type Laplacian struct {
	L *mat.CSR
	// Deg is the undirected degree per node (the diagonal of L).
	Deg []int
	// LambdaMax is the filter scaling bound: 2·maxdeg ≥ λ for every
	// eigenvalue λ of L, so S = I - L/LambdaMax is doubly stochastic with
	// spectrum in [0, 1].
	LambdaMax float64
}

// NewLaplacian builds the Laplacian of ug, which must already be symmetric
// (graph.Digraph.Undirected output: u→v present iff v→u, no self loops).
// Isolated nodes get an all-zero row, i.e. they keep all diffused mass.
func NewLaplacian(ug *graph.Digraph) *Laplacian {
	n := ug.N()
	deg := ug.Degrees()
	entries := make([]mat.COO, 0, ug.M()+n)
	for u := 0; u < n; u++ {
		if deg[u] > 0 {
			entries = append(entries, mat.COO{Row: u, Col: u, Val: float64(deg[u])})
		}
		for _, v := range ug.Out(u) {
			entries = append(entries, mat.COO{Row: u, Col: v, Val: -1})
		}
	}
	lmax := 2 * float64(ug.MaxDegree())
	if lmax == 0 {
		lmax = 1 // edgeless graph: L = 0, any positive scale works
	}
	return &Laplacian{L: mat.NewCSR(n, n, entries), Deg: deg, LambdaMax: lmax}
}

// N returns the node count.
func (lap *Laplacian) N() int { return lap.L.R }

// Coeffs returns the K+1 Chebyshev coefficients c_k of the filter response
// h over [0, lambdaMax]: h(λ) ≈ Σ_k c_k·T_k(2λ/lambdaMax - 1), computed by
// Chebyshev–Gauss quadrature with 4(K+1) nodes. For h a polynomial of
// degree ≤ K the expansion is exact (up to rounding): the quadrature
// integrates products of Chebyshev polynomials up to that degree without
// aliasing, which is what lets the diffusion responses below pass through
// the Chebyshev machinery unchanged.
func Coeffs(h func(float64) float64, K int, lambdaMax float64) []float64 {
	if K < 0 {
		panic(fmt.Sprintf("gsp: negative Chebyshev order %d", K))
	}
	N := 4 * (K + 1)
	c := make([]float64, K+1)
	for j := 0; j < N; j++ {
		theta := math.Pi * (float64(j) + 0.5) / float64(N)
		x := math.Cos(theta)
		f := h((x + 1) * lambdaMax / 2)
		for k := 0; k <= K; k++ {
			c[k] += f * math.Cos(float64(k)*theta)
		}
	}
	for k := range c {
		c[k] *= 2 / float64(N)
	}
	c[0] /= 2
	return c
}

// DiffusionCoeffs returns the Chebyshev coefficients of the s-step
// uniformized diffusion h_s(λ) = (1 - λ/lambdaMax)^s, i.e. the filter whose
// application is exactly S^s for S = I - L/λmax. The order is s: the
// response is a degree-s polynomial and the expansion is exact.
func (lap *Laplacian) DiffusionCoeffs(s int) []float64 {
	return Coeffs(func(lam float64) float64 {
		return math.Pow(1-lam/lap.LambdaMax, float64(s))
	}, s, lap.LambdaMax)
}

// ApplyMulti pushes X through several Chebyshev filters at once, sharing one
// recursion: out[f] = Σ_k coeffs[f][k]·T_k(L̃)·X with L̃ = (2/λmax)L - I.
// The cost is max_f(len(coeffs[f])-1) sparse SpMMs of X's width, all on the
// deterministic MulDenseParInto kernel. ctx is consulted once per recursion
// step (one step is one SpMM over the whole graph); cancellation returns an
// error wrapping ctx.Err(). The run is recorded under the "gsp.filter"
// stage in rec (nil records nothing).
func (lap *Laplacian) ApplyMulti(ctx context.Context, coeffs [][]float64, X *mat.Dense, rec *stage.Recorder) ([]*mat.Dense, error) {
	defer rec.Start("gsp.filter")()
	K := 0
	for _, c := range coeffs {
		if len(c)-1 > K {
			K = len(c) - 1
		}
	}
	outs := make([]*mat.Dense, len(coeffs))
	// T_0 = X.
	tPrev := X.Clone()
	for f, c := range coeffs {
		outs[f] = X.Scale(c[0])
	}
	if K == 0 {
		return outs, nil
	}
	// T_1 = L̃·X.
	tCur := mat.NewDense(X.R, X.C)
	tNext := mat.NewDense(X.R, X.C)
	lap.scaledMulInto(X, tCur)
	accumulate(outs, coeffs, 1, tCur)
	for k := 2; k <= K; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gsp: filter canceled at Chebyshev step %d of %d: %w", k, K, err)
		}
		// T_k = 2·L̃·T_{k-1} - T_{k-2}.
		lap.scaledMulInto(tCur, tNext)
		for i, v := range tPrev.Data {
			tNext.Data[i] = 2*tNext.Data[i] - v
		}
		tPrev, tCur, tNext = tCur, tNext, tPrev
		accumulate(outs, coeffs, k, tCur)
	}
	return outs, nil
}

// scaledMulInto computes out = L̃·x = (2/λmax)·L·x - x.
func (lap *Laplacian) scaledMulInto(x, out *mat.Dense) {
	lap.L.MulDenseParInto(x, out)
	s := 2 / lap.LambdaMax
	for i, v := range x.Data {
		out.Data[i] = s*out.Data[i] - v
	}
}

// accumulate folds c_k·T_k into every filter output that still has a k-th
// coefficient.
func accumulate(outs []*mat.Dense, coeffs [][]float64, k int, tk *mat.Dense) {
	for f, c := range coeffs {
		if k >= len(c) || c[k] == 0 {
			continue
		}
		ck := c[k]
		o := outs[f]
		for i, v := range tk.Data {
			o.Data[i] += ck * v
		}
	}
}
