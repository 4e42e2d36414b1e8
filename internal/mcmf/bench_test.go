package mcmf

import (
	"math"
	"math/rand"
	"testing"
)

// benchInstance builds a reproducible assignment-shaped transportation
// instance (n DSPs × m sites, k candidate arcs per DSP): as a flow network,
// source 0, DSPs 1..n, sites n+1..n+m, sink n+m+1, unit capacities,
// λ-scaled quadratic costs.
type benchArc struct {
	dsp, site int
	cost      float64
}

func benchInstance(n, m, k int, seed int64) []benchArc {
	rng := rand.New(rand.NewSource(seed))
	arcs := make([]benchArc, 0, n*k)
	for i := 0; i < n; i++ {
		base := rng.Intn(m)
		for x := 0; x < k; x++ {
			j := (base + x*7) % m
			d := float64(i-j*3) / float64(m)
			arcs = append(arcs, benchArc{dsp: i, site: j,
				cost: 100*d*d + rng.Float64()})
		}
	}
	return arcs
}

func buildBench(n, m int, arcs []benchArc) (*Solver, []ArcID) {
	g := NewSolver(n + m + 2)
	src, sink := 0, n+m+1
	siteUsed := make([]bool, m)
	for i := 0; i < n; i++ {
		g.AddEdge(src, 1+i, 1, 0)
	}
	refs := make([]ArcID, len(arcs))
	for x, a := range arcs {
		refs[x] = g.AddEdge(1+a.dsp, 1+n+a.site, 1, a.cost)
		if !siteUsed[a.site] {
			siteUsed[a.site] = true
			g.AddEdge(1+n+a.site, sink, 1, 0)
		}
	}
	return g, refs
}

// BenchmarkMinCostFlow measures one general min-cost-flow solve of a
// bipartite assignment network (240 DSPs, 630 sites, 24 candidates each):
// network build, compile and full successive-shortest-path searches.
func BenchmarkMinCostFlow(b *testing.B) {
	const n, m, k = 240, 630, 24
	arcs := benchInstance(n, m, k, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		g, _ := buildBench(n, m, arcs)
		flow, cost := g.Solve(0, n+m+1, int64(n))
		if flow != int64(n) || math.IsNaN(cost) {
			b.Fatalf("flow=%d cost=%v", flow, cost)
		}
	}
}

// denseInstance builds an assignment instance the size of a dsp-dense
// linearization iterate: n DSPs on m sites, sites evenly spaced along a
// line, DSPs crowded around a few centres so that they compete for sites.
// Each DSP's candidates are the k consecutive sites around its target, in
// site order, with a squared-distance cost plus noise (no exact ties).
func denseInstance(n, m, k int, seed int64) (cols [][]int, costs [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	centres := []float64{0.2, 0.45, 0.8}
	cols = make([][]int, n)
	costs = make([][]float64, n)
	for i := range cols {
		c := centres[rng.Intn(len(centres))]
		t := (c + 0.05*rng.NormFloat64()) * float64(m)
		t = math.Min(math.Max(t, 0), float64(m-1))
		lo := int(t) - k/2
		lo = min(max(lo, 0), m-k)
		for j := lo; j < lo+k; j++ {
			d := float64(j) - t
			cols[i] = append(cols[i], j)
			costs[i] = append(costs[i], 100*d*d+rng.Float64())
		}
	}
	return cols, costs
}

// BenchmarkAssigner measures one Assigner.Solve at dsp-dense size (320
// DSPs, 1728 sites, 32 candidates each), the solve every assign iterate
// runs. The Assigner is reused across iterations, as assign.Solve reuses
// it across iterates.
func BenchmarkAssigner(b *testing.B) {
	const n, m, k = 320, 1728, 32
	cols, costs := denseInstance(n, m, k, 1)
	var a Assigner
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		if _, cost, ok := a.Solve(m, cols, costs); !ok || math.IsNaN(cost) {
			b.Fatalf("ok=%v cost=%v", ok, cost)
		}
	}
}
