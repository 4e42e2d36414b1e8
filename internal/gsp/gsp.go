package gsp

import (
	"context"
	"math"
	"math/rand"

	"dsplacer/internal/graph"
	"dsplacer/internal/mat"
	"dsplacer/internal/stage"
)

// Options tunes the probe estimator.
type Options struct {
	// Probes is the Hutchinson batch size (default 6). When Probes ≥ n the
	// estimator switches to indicator probes, which recover the filtered
	// diagonals exactly — small graphs pay n matvec columns and get
	// noise-free surrogates.
	Probes int
	// Order is the Chebyshev degree K and the long diffusion scale (default
	// 10): the global filter is S^Order.
	Order int
	// LocalSteps is the short diffusion scale (default Order/4, min 1) used
	// for the eccentricity surrogate's local term.
	LocalSteps int
	// Seed drives probe generation; the probe matrix is a pure function of
	// (Seed, n, Probes), so runs are exactly repeatable.
	Seed int64
	// Stages receives the filter timing (gsp.filter); nil records nothing.
	Stages *stage.Recorder
}

func (o Options) withDefaults() Options {
	if o.Probes == 0 {
		o.Probes = 6
	}
	if o.Order == 0 {
		o.Order = 10
	}
	if o.LocalSteps == 0 {
		o.LocalSteps = o.Order / 4
	}
	if o.LocalSteps < 1 {
		o.LocalSteps = 1
	}
	return o
}

// Result holds the spectral feature surrogates, indexed by node.
type Result struct {
	// Closeness is the inverse resolvent diagonal 1/diag((L+εI)^-1) with
	// ε = λmax/8 — effective-resistance (topological) centrality: central
	// nodes see low resistance to the rest of the graph, so their resolvent
	// diagonal is small and the surrogate large. Monotone with exact
	// closeness on the paper's fixtures and rank-correlated with it on
	// netlist-sized graphs, where the escape-fraction surrogate is not.
	Closeness []float64
	// Eccentricity is the retained-mass sum diag(S^k_local) + diag(S^K):
	// peripheral nodes (chain ends, deep leaves) hold diffused mass at both
	// scales, mirroring high exact eccentricity.
	Eccentricity []float64
	// Betweenness is the degree-weighted escape deg(v)·(1 - diag(S^K)) — a
	// current-flow-style surrogate: the flow through a node scales with how
	// many edges it offers (degree) times how fast diffused mass leaves it.
	Betweenness []float64
	// AvgDSPDist is the negative log of the diffused DSP-indicator mass a
	// DSP node receives from the *other* DSPs, zero on non-DSP nodes and
	// nil when fewer than two DSPs were given. Monotone with the exact
	// mean BFS distance: nearby DSP mass arrives, distant mass does not.
	AvgDSPDist []float64
}

// Probes returns the deterministic n×p Rademacher (±1) probe matrix for a
// seed. Exported so tests can pin the frozen-seed contract.
func Probes(n, p int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	Z := mat.NewDense(n, p)
	for i := range Z.Data {
		if rng.Int63()&1 == 0 {
			Z.Data[i] = 1
		} else {
			Z.Data[i] = -1
		}
	}
	return Z
}

// Features estimates the centrality surrogates of ug (which must be the
// symmetrized netlist graph) and, when dsp lists at least two nodes, the
// average-DSP-distance surrogate — all from one shared Chebyshev recursion:
// Order sparse SpMMs of width Probes+1. ctx cancels between recursion steps;
// the returned error wraps ctx.Err() so callers can classify it.
func Features(ctx context.Context, ug *graph.Digraph, dsp []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := ug.N()
	res := &Result{
		Closeness:    make([]float64, n),
		Eccentricity: make([]float64, n),
		Betweenness:  make([]float64, n),
	}
	if n == 0 {
		return res, nil
	}
	lap := NewLaplacian(ug)

	// Probe block: ±1 probes (or exact indicator probes on small graphs),
	// plus one DSP-indicator column sharing the same recursion.
	exact := opt.Probes >= n
	p := opt.Probes
	if exact {
		p = n
	}
	withDSP := len(dsp) >= 2
	width := p
	if withDSP {
		width++
	}
	var X *mat.Dense
	if exact {
		X = mat.NewDense(n, width)
		for v := 0; v < n; v++ {
			X.Set(v, v, 1)
		}
	} else {
		Z := Probes(n, p, opt.Seed)
		if withDSP {
			X = mat.NewDense(n, width)
			for v := 0; v < n; v++ {
				copy(X.Row(v)[:p], Z.Row(v))
			}
		} else {
			X = Z
		}
	}
	if withDSP {
		for _, v := range dsp {
			X.Set(v, p, 1)
		}
	}

	// The resolvent response 1/(λ+ε) is not polynomial, but with
	// ε = λmax/8 its Chebyshev expansion converges geometrically and is
	// accurate to ~1e-4 at the default order.
	eps := lap.LambdaMax / 8
	outs, err := lap.ApplyMulti(ctx, [][]float64{
		lap.DiffusionCoeffs(opt.LocalSteps),
		lap.DiffusionCoeffs(opt.Order),
		Coeffs(func(l float64) float64 { return 1 / (l + eps) }, opt.Order, lap.LambdaMax),
	}, X, opt.Stages)
	if err != nil {
		return nil, err
	}
	local, global, resolv := outs[0], outs[1], outs[2]

	// Hutchinson diagonal estimates: diag(h(L)) ≈ mean_j z_j ⊙ (h(L) z_j).
	// With indicator probes the mean collapses to the exact diagonal entry.
	retLocal := diagEstimate(X, local, p, exact)
	retGlobal := diagEstimate(X, global, p, exact)
	resDiag := diagEstimate(X, resolv, p, exact)
	diagFloor := 1 / (lap.LambdaMax + eps) // spectral lower bound of the diagonal
	for v := 0; v < n; v++ {
		rl, rg := clamp01(retLocal[v]), clamp01(retGlobal[v])
		rd := resDiag[v]
		if rd < diagFloor {
			rd = diagFloor
		}
		res.Closeness[v] = 1 / rd
		res.Eccentricity[v] = rl + rg
		res.Betweenness[v] = float64(lap.Deg[v]) * (1 - rg)
	}

	if withDSP {
		res.AvgDSPDist = make([]float64, n)
		norm := float64(len(dsp) - 1)
		for _, v := range dsp {
			// Mass received from the *other* DSPs: total diffused indicator
			// mass minus the node's own retention estimate.
			m := global.At(v, p) - retGlobal[v]
			if m < distEps {
				m = distEps
			}
			res.AvgDSPDist[v] = -math.Log(m / norm)
		}
	}
	return res, nil
}

// distEps floors the received-mass estimate so unreachable DSPs map to a
// large finite distance surrogate instead of +Inf.
const distEps = 1e-12

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// diagEstimate recovers diag(filter) from probe inputs X and filtered
// outputs H over the first p columns. Accumulation runs in column order per
// row, so the estimate is bit-identical for any worker count upstream.
func diagEstimate(X, H *mat.Dense, p int, exact bool) []float64 {
	n := X.R
	d := make([]float64, n)
	if exact {
		for v := 0; v < n; v++ {
			d[v] = H.At(v, v)
		}
		return d
	}
	inv := 1 / float64(p)
	for v := 0; v < n; v++ {
		xr, hr := X.Row(v), H.Row(v)
		s := 0.0
		for j := 0; j < p; j++ {
			s += xr[j] * hr[j]
		}
		d[v] = s * inv
	}
	return d
}
