package mcmf

import (
	"math"
	"math/rand"
	"testing"
)

// benchInstance builds a reproducible assignment-shaped transportation
// instance (n DSPs × m sites, k candidate arcs per DSP) mirroring the
// bipartite networks assign.solveOnce assembles: source 0, DSPs 1..n,
// sites n+1..n+m, sink n+m+1, unit capacities, λ-scaled quadratic costs,
// searches that stop at the sink.
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
	g.StopAtSink = true
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

// BenchmarkMinCostFlow measures one cold bipartite assignment solve at a
// size representative of a mini-benchmark iteration (240 DSPs, 630 sites,
// 24 candidates each): network build + CSR compile + solve, as the first
// placement iteration pays it.
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

// BenchmarkMinCostFlowWarm measures the steady-state placement iteration:
// the network is kept alive, every candidate-arc cost is rewritten, the
// flow state is Reset, and the same compiled CSR is solved again — the
// path iterations 2..50 of assign.Solve take.
func BenchmarkMinCostFlowWarm(b *testing.B) {
	const n, m, k = 240, 630, 24
	arcs := benchInstance(n, m, k, 1)
	g, refs := buildBench(n, m, arcs)
	if flow, _ := g.Solve(0, n+m+1, int64(n)); flow != int64(n) {
		b.Fatal("warmup solve incomplete")
	}
	perturb := benchInstance(n, m, k, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for x, r := range refs {
			g.UpdateCost(r, perturb[x].cost+float64(it&1))
		}
		g.Reset()
		flow, cost := g.Solve(0, n+m+1, int64(n))
		if flow != int64(n) || math.IsNaN(cost) {
			b.Fatalf("flow=%d cost=%v", flow, cost)
		}
	}
}

// BenchmarkMinCostFlowDrift measures the steady state of assign's flowNet,
// where the candidate sets drift between iterates: each round swaps 15% of
// the candidate arcs for disabled ones of the same DSP, stages a few arcs
// never seen before, rewrites every candidate cost, then Resets and solves.
// Each DSP draws on a pool of 32 sites, 28 staged at the start with 24 of
// them candidates. A round allocates only when its added arcs outgrow the
// staged arrays, which grow geometrically, so it reports 0 allocs/op.
func BenchmarkMinCostFlowDrift(b *testing.B) {
	const n, m, k, pool = 240, 630, 24, 32
	const swaps, adds = n * k * 15 / 100, 4
	arcs := benchInstance(n, m, pool, 1)
	src, sink := 0, n+m+1
	g := NewSolver(n + m + 2)
	g.StopAtSink = true
	ids := make([]ArcID, len(arcs)) // pool index i*pool+x → handle
	on := make([]bool, len(arcs))
	staged := make([]int, n) // pool slots 0..staged[i]-1 are staged
	siteUsed := make([]bool, m)
	stage := func(x int, enabled bool) {
		a := arcs[x]
		cp := int64(0)
		if enabled {
			cp = 1
		}
		ids[x] = g.AddEdge(1+a.dsp, 1+n+a.site, cp, a.cost)
		on[x] = enabled
		if !siteUsed[a.site] {
			siteUsed[a.site] = true
			g.AddEdge(1+n+a.site, sink, 1, 0)
		}
	}
	for i := 0; i < n; i++ {
		g.AddEdge(src, 1+i, 1, 0)
		for x := 0; x < k+4; x++ {
			stage(i*pool+x, x < k)
		}
		staged[i] = k + 4
	}
	rng := rand.New(rand.NewSource(3))
	pick := func(i int, state bool) int { // a staged slot of DSP i in state
		for {
			if x := i*pool + rng.Intn(staged[i]); on[x] == state {
				return x
			}
		}
	}
	jitter := make([]float64, len(arcs)+1)
	for x := range jitter {
		jitter[x] = rng.Float64()
	}
	nextAdd := 0
	round := func(r int) {
		for s := 0; s < swaps; s++ {
			i := rng.Intn(n)
			on[pick(i, true)] = false
			on[pick(i, false)] = true
		}
		for a := 0; a < adds; a++ {
			i := nextAdd % n
			nextAdd++
			if staged[i] < pool {
				on[pick(i, true)] = false
				stage(i*pool+staged[i], true)
				staged[i]++
			}
		}
		for i := 0; i < n; i++ {
			for x := i * pool; x < i*pool+staged[i]; x++ {
				if !on[x] {
					g.SetCap(ids[x], 0)
					continue
				}
				g.UpdateCost(ids[x], arcs[x].cost+jitter[(x+r)%len(jitter)])
				g.SetCap(ids[x], 1)
			}
		}
		g.Reset()
		if flow, cost := g.Solve(src, sink, n); flow != n || math.IsNaN(cost) {
			b.Fatalf("flow=%d cost=%v", flow, cost)
		}
	}
	for r := 0; r < 3; r++ { // size the compiled arrays
		round(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		round(3 + it)
	}
}
