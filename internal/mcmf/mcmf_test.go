package mcmf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplePath(t *testing.T) {
	g := NewSolver(3)
	e0 := g.AddEdge(0, 1, 5, 2)
	e1 := g.AddEdge(1, 2, 3, 1)
	flow, cost := g.Solve(0, 2, math.MaxInt64)
	if flow != 3 || cost != 9 {
		t.Fatalf("flow=%d cost=%v, want 3/9", flow, cost)
	}
	if g.Flow(e0) != 3 || g.Flow(e1) != 3 {
		t.Fatal("edge flows wrong")
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 0→1 routes through intermediates; cheaper one first.
	g := NewSolver(4)
	g.AddEdge(0, 1, 1, 10) // expensive direct
	g.AddEdge(0, 2, 1, 1)
	g.AddEdge(2, 1, 1, 1) // cheap via 2
	g.AddEdge(1, 3, 2, 0)
	flow, cost := g.Solve(0, 3, 1)
	if flow != 1 || cost != 2 {
		t.Fatalf("flow=%d cost=%v, want 1/2", flow, cost)
	}
	flow, cost = g.Solve(0, 3, 1) // second unit takes the dear route
	if flow != 1 || cost != 10 {
		t.Fatalf("flow=%d cost=%v, want 1/10", flow, cost)
	}
}

func TestNegativeCosts(t *testing.T) {
	g := NewSolver(3)
	g.AddEdge(0, 1, 2, -5)
	g.AddEdge(1, 2, 2, 3)
	flow, cost := g.Solve(0, 2, math.MaxInt64)
	if flow != 2 || cost != -4 {
		t.Fatalf("flow=%d cost=%v, want 2/-4", flow, cost)
	}
}

func TestMaxFlowCap(t *testing.T) {
	g := NewSolver(2)
	g.AddEdge(0, 1, 100, 1)
	flow, cost := g.Solve(0, 1, 7)
	if flow != 7 || cost != 7 {
		t.Fatalf("flow=%d cost=%v", flow, cost)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewSolver(3)
	g.AddEdge(0, 1, 4, 1)
	flow, cost := g.Solve(0, 2, math.MaxInt64)
	if flow != 0 || cost != 0 {
		t.Fatalf("flow=%d cost=%v, want 0/0", flow, cost)
	}
}

func TestSourceEqualsSink(t *testing.T) {
	g := NewSolver(1)
	if f, c := g.Solve(0, 0, 10); f != 0 || c != 0 {
		t.Fatalf("f=%d c=%v", f, c)
	}
}

// assignmentBrute solves the n×n assignment problem exactly by permutation
// enumeration (n ≤ 7).
func assignmentBrute(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	used := make([]bool, n)
	best := math.Inf(1)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i+1, acc+cost[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

// Property: MCMF solves random assignment problems to optimality and yields
// a perfect integral matching.
func TestAssignmentOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5) // 2..6
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(50))
			}
		}
		// Build bipartite flow: s=0, workers 1..n, jobs n+1..2n, t=2n+1.
		g := NewSolver(2*n + 2)
		s, tt := 0, 2*n+1
		refs := make([][]ArcID, n)
		for i := 0; i < n; i++ {
			g.AddEdge(s, 1+i, 1, 0)
			refs[i] = make([]ArcID, n)
			for j := 0; j < n; j++ {
				refs[i][j] = g.AddEdge(1+i, n+1+j, 1, cost[i][j])
			}
			g.AddEdge(n+1+i, tt, 1, 0)
		}
		flow, got := g.Solve(s, tt, math.MaxInt64)
		if flow != int64(n) {
			return false
		}
		// Extract matching: each worker exactly one job, each job once.
		jobUsed := make([]bool, n)
		check := 0.0
		for i := 0; i < n; i++ {
			cnt := 0
			for j := 0; j < n; j++ {
				fl := g.Flow(refs[i][j])
				if fl < 0 || fl > 1 {
					return false
				}
				if fl == 1 {
					cnt++
					if jobUsed[j] {
						return false
					}
					jobUsed[j] = true
					check += cost[i][j]
				}
			}
			if cnt != 1 {
				return false
			}
		}
		want := assignmentBrute(cost)
		return math.Abs(got-want) < 1e-9 && math.Abs(check-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: flow conservation at every internal node.
func TestFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		g := NewSolver(n)
		var refs []ArcID
		for i := 0; i < 12; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				refs = append(refs, g.AddEdge(u, v, int64(1+rng.Intn(4)), float64(rng.Intn(9))))
			}
		}
		g.Solve(0, n-1, math.MaxInt64)
		net := make([]int64, n)
		for _, r := range refs {
			if fl := g.Flow(r); fl > 0 {
				net[g.to[2*r+1]] -= fl
				net[g.to[2*r]] += fl
			}
		}
		for v := 1; v < n-1; v++ {
			if net[v] != 0 {
				return false
			}
		}
		return net[0] <= 0 && net[n-1] >= 0 && net[0] == -net[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	g := NewSolver(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range edge accepted")
			}
		}()
		g.AddEdge(0, 5, 1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative capacity accepted")
			}
		}()
		g.AddEdge(0, 1, -1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddEdge after Solve accepted")
			}
		}()
		g.AddEdge(0, 1, 2, 1)
		g.Solve(0, 1, 1)
		g.AddEdge(1, 0, 2, 1) // must panic: the network is compiled
	}()
}

// randomTransportation builds an n-rows × m-cols (n ≤ m) assignment
// instance with float costs (optionally shifted negative) and returns the
// cost matrix.
func randomTransportation(rng *rand.Rand, allowNegative bool) [][]float64 {
	n := 1 + rng.Intn(8)
	m := n + rng.Intn(5)
	shift := 0.0
	if allowNegative {
		shift = -20
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = rng.Float64()*100 + shift
		}
	}
	return cost
}

// solveBipartite runs the solver on the standard bipartite network for a
// cost matrix and extracts the assignment.
func solveBipartite(t *testing.T, cost [][]float64) ([]int, float64) {
	t.Helper()
	n := len(cost)
	m := len(cost[0])
	g := NewSolver(n + m + 2)
	src, sink := 0, n+m+1
	refs := make([][]ArcID, n)
	for i := 0; i < n; i++ {
		g.AddEdge(src, 1+i, 1, 0)
		refs[i] = make([]ArcID, m)
		for j := 0; j < m; j++ {
			refs[i][j] = g.AddEdge(1+i, 1+n+j, 1, cost[i][j])
		}
	}
	for j := 0; j < m; j++ {
		g.AddEdge(1+n+j, sink, 1, 0)
	}
	flow, total := g.Solve(src, sink, int64(n))
	if flow != int64(n) {
		t.Fatalf("flow %d < %d", flow, n)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
		for j := 0; j < m; j++ {
			if g.Flow(refs[i][j]) == 1 {
				if assign[i] != -1 {
					t.Fatalf("row %d assigned twice", i)
				}
				assign[i] = j
			}
		}
		if assign[i] == -1 {
			t.Fatalf("row %d unassigned", i)
		}
	}
	return assign, total
}

// TestEquivalenceVsHungarian cross-checks the flow solver against the
// Hungarian solver on ~200 random transportation instances: the optimal
// costs must agree and the flow must encode a valid integral assignment.
func TestEquivalenceVsHungarian(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cost := randomTransportation(rng, trial%3 == 0)
		assign, total, err := hungarianSolve(cost)
		if err != nil {
			t.Fatal(err)
		}
		_ = assign
		got, gotTotal := solveBipartite(t, cost)
		if math.Abs(gotTotal-total) > 1e-9 {
			t.Fatalf("trial %d: mcmf cost %v, hungarian %v", trial, gotTotal, total)
		}
		// Valid injection.
		used := make(map[int]bool)
		check := 0.0
		for i, j := range got {
			if used[j] {
				t.Fatalf("trial %d: column %d used twice", trial, j)
			}
			used[j] = true
			check += cost[i][j]
		}
		if math.Abs(check-gotTotal) > 1e-9 {
			t.Fatalf("trial %d: reported cost %v, recomputed %v", trial, gotTotal, check)
		}
	}
}

// checkReducedCosts requires cost + h[u] - h[v] ≥ -tol on every residual
// arc (caps > 0) of the compiled network whose ends both have finite
// potentials: the invariant that keeps the next Dijkstra search exact.
// Searches never raise a node they did not reach, so only arcs whose tail
// src still reaches are checked; that is every arc a later search can
// scan, because augmenting only adds arcs between reached nodes.
func checkReducedCosts(t *testing.T, name string, g *Solver, src int) {
	t.Helper()
	arcs := func(u int) []int32 { return g.adj[g.head[u]:g.head[u+1]] }
	scan := make([]bool, g.n)
	scan[src] = true
	for stack := []int{src}; len(stack) > 0; {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range arcs(u) {
			if v := g.to[a]; g.caps[a] > 0 && !scan[v] {
				scan[v] = true
				stack = append(stack, int(v))
			}
		}
	}
	for u := 0; u < g.n; u++ {
		if !scan[u] {
			continue
		}
		for _, a := range arcs(u) {
			v := g.to[a]
			hu, hv := g.h[u], g.h[v]
			if g.caps[a] <= 0 || math.IsInf(hu, 1) || math.IsInf(hv, 1) {
				continue
			}
			rc := g.cost[a] + hu - hv
			if tol := 1e-9 * (1 + math.Abs(g.cost[a]) + math.Abs(hu) + math.Abs(hv)); rc < -tol {
				t.Fatalf("%s: arc %d→%d reduced cost %g", name, u, v, rc)
			}
		}
	}
}

// TestReducedCostInvariant solves random networks for every flow value k
// and checks the reduced-cost invariant after each solve: bipartite
// assignment networks with negative costs (the Bellman–Ford start) and
// general multi-unit networks.
func TestReducedCostInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		cost := randomTransportation(rng, trial%2 == 0)
		n, m := len(cost), len(cost[0])
		var edges []stagedEdge
		for i := 0; i < n; i++ {
			edges = append(edges, stagedEdge{0, 1 + i, 1, 0})
			for j := 0; j < m; j++ {
				if rng.Float64() < 0.7 {
					edges = append(edges, stagedEdge{1 + i, 1 + n + j, 1, cost[i][j]})
				}
			}
		}
		for j := 0; j < m; j++ {
			edges = append(edges, stagedEdge{1 + n + j, n + m + 1, 1, 0})
		}
		for k := 1; k <= n; k++ {
			g := buildStaged(n+m+2, edges)
			g.Solve(0, n+m+1, int64(k))
			checkReducedCosts(t, fmt.Sprintf("bipartite trial %d k=%d", trial, k), g, 0)
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(8)
		var edges []stagedEdge
		for e := 0; e < 4*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u >= v { // acyclic, so negative costs hold no negative cycle
				continue
			}
			edges = append(edges, stagedEdge{u, v, int64(1 + rng.Intn(4)), rng.Float64()*30 - 8})
		}
		maxFlow, _ := buildStaged(n, edges).Solve(0, n-1, math.MaxInt64)
		for k := int64(1); k <= maxFlow; k++ {
			g := buildStaged(n, edges)
			g.Solve(0, n-1, k)
			checkReducedCosts(t, fmt.Sprintf("general trial %d k=%d", trial, k), g, 0)
		}
	}
}

// buildStaged returns a fresh n-node solver holding edges in order.
func buildStaged(n int, edges []stagedEdge) *Solver {
	g := NewSolver(n)
	for _, e := range edges {
		g.AddEdge(e.u, e.v, e.cap, e.cost)
	}
	return g
}

// TestDisabledArcContract pins what a zero-capacity arc means: it is left
// out of the compiled adjacency and reports no flow, and a negative cost
// on it still selects the Bellman–Ford start.
func TestDisabledArcContract(t *testing.T) {
	g := NewSolver(3)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 1, 1, 5)
	idle := g.AddEdge(0, 2, 0, 0) // staged with capacity 0, never compiled
	g.AddEdge(1, 2, 2, 0)
	if f, c := g.Solve(0, 2, 2); f != 2 || c != 6 {
		t.Fatalf("flow=%d cost=%v, want 2/6", f, c)
	}
	if g.Flow(idle) != 0 {
		t.Fatal("arc staged with capacity 0 reports flow")
	}
	if got := g.head[3]; got != 6 {
		t.Fatalf("compiled %d arcs, want 6 (the capacity-0 edge left out)", got)
	}

	// A negative cost on a zero-capacity arc still selects the
	// Bellman–Ford start: a node it alone could reach keeps a +Inf
	// potential instead of a zero one.
	neg := NewSolver(4)
	neg.AddEdge(0, 1, 1, 1)
	neg.AddEdge(1, 2, 1, 1)
	neg.AddEdge(0, 3, 0, -5)
	if f, c := neg.Solve(0, 2, 1); f != 1 || c != 2 || !math.IsInf(neg.h[3], 1) {
		t.Fatalf("flow=%d cost=%v h[3]=%v, want 1/2 and a Bellman–Ford start", f, c, neg.h[3])
	}
}
