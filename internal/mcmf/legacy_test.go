package mcmf

// This file carries a verbatim copy of the pre-CSR solver (slice-of-slices
// adjacency, container/heap priority queue, unconditional Bellman–Ford) as
// an executable reference. The equivalence tests drive both solvers over
// random instances and demand *bit-identical* flows and costs — the
// contract the CSR rewrite promises: same augmenting-path order, same
// float accumulation order, same results.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

type legacyEdge struct {
	To   int
	Cap  int64
	Cost float64
	rev  int
	flow int64
}

type legacyGraph struct {
	n   int
	adj [][]legacyEdge
}

func newLegacyGraph(n int) *legacyGraph {
	return &legacyGraph{n: n, adj: make([][]legacyEdge, n)}
}

type legacyRef struct{ u, idx int }

func (g *legacyGraph) AddEdge(u, v int, cap int64, cost float64) legacyRef {
	g.adj[u] = append(g.adj[u], legacyEdge{To: v, Cap: cap, Cost: cost, rev: len(g.adj[v])})
	g.adj[v] = append(g.adj[v], legacyEdge{To: u, Cap: 0, Cost: -cost, rev: len(g.adj[u]) - 1})
	return legacyRef{u: u, idx: len(g.adj[u]) - 1}
}

func (g *legacyGraph) Flow(r legacyRef) int64 { return g.adj[r.u][r.idx].flow }

type legacyPQItem struct {
	node int
	dist float64
}
type legacyPQ []legacyPQItem

func (q legacyPQ) Len() int            { return len(q) }
func (q legacyPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q legacyPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *legacyPQ) Push(x interface{}) { *q = append(*q, x.(legacyPQItem)) }
func (q *legacyPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (g *legacyGraph) MinCostFlow(s, t int, maxFlow int64) (flow int64, cost float64) {
	if s == t {
		return 0, 0
	}
	h := g.bellmanFordPotentials(s)
	dist := make([]float64, g.n)
	prevNode := make([]int, g.n)
	prevEdge := make([]int, g.n)

	for flow < maxFlow {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevNode[i] = -1
		}
		dist[s] = 0
		q := &legacyPQ{{node: s, dist: 0}}
		for q.Len() > 0 {
			it := heap.Pop(q).(legacyPQItem)
			if it.dist > dist[it.node] {
				continue
			}
			u := it.node
			for ei := range g.adj[u] {
				e := &g.adj[u][ei]
				if e.Cap <= 0 || math.IsInf(h[u], 1) {
					continue
				}
				rc := e.Cost + h[u] - h[e.To]
				if rc < 0 {
					rc = 0
				}
				nd := dist[u] + rc
				eps := 1e-12 * (1 + math.Abs(nd))
				if nd < dist[e.To]-eps {
					dist[e.To] = nd
					prevNode[e.To] = u
					prevEdge[e.To] = ei
					heap.Push(q, legacyPQItem{node: e.To, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break
		}
		for i := range h {
			if !math.IsInf(dist[i], 1) {
				h[i] += dist[i]
			}
		}
		push := maxFlow - flow
		for v := t; v != s; v = prevNode[v] {
			e := &g.adj[prevNode[v]][prevEdge[v]]
			if e.Cap < push {
				push = e.Cap
			}
		}
		for v := t; v != s; v = prevNode[v] {
			e := &g.adj[prevNode[v]][prevEdge[v]]
			e.Cap -= push
			e.flow += push
			rev := &g.adj[v][e.rev]
			rev.Cap += push
			rev.flow -= push
			cost += float64(push) * e.Cost
		}
		flow += push
	}
	return flow, cost
}

func (g *legacyGraph) bellmanFordPotentials(s int) []float64 {
	h := make([]float64, g.n)
	for i := range h {
		h[i] = math.Inf(1)
	}
	h[s] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if math.IsInf(h[u], 1) {
				continue
			}
			for ei := range g.adj[u] {
				e := &g.adj[u][ei]
				if e.Cap > 0 && h[u]+e.Cost < h[e.To]-1e-12 {
					h[e.To] = h[u] + e.Cost
					changed = true
				}
			}
		}
		if !changed {
			return h
		}
	}
	panic("legacy: negative cycle")
}

// stagedEdge is one AddEdge call, replayed into both solvers.
type stagedEdge struct {
	u, v int
	cap  int64
	cost float64
}

// compareWithLegacy builds the CSR solver (with the given search setting)
// and a cold legacy graph from the same staged edges in the same order,
// solves both and requires exactly equal flow, cost and per-arc flows.
func compareWithLegacy(t *testing.T, name string, n int, edges []stagedEdge,
	src, sink int, maxFlow int64, stopAtSink bool) {
	t.Helper()
	g := NewSolver(n)
	g.StopAtSink = stopAtSink
	l := newLegacyGraph(n)
	refs := make([]ArcID, len(edges))
	lrefs := make([]legacyRef, len(edges))
	for x, e := range edges {
		refs[x] = g.AddEdge(e.u, e.v, e.cap, e.cost)
		lrefs[x] = l.AddEdge(e.u, e.v, e.cap, e.cost)
	}
	gf, gc := g.Solve(src, sink, maxFlow)
	lf, lc := l.MinCostFlow(src, sink, maxFlow)
	checkAgainstLegacy(t, name, g, refs, gf, gc, l, lrefs, lf, lc)
}

func checkAgainstLegacy(t *testing.T, name string, g *Solver, refs []ArcID, gf int64, gc float64,
	l *legacyGraph, lrefs []legacyRef, lf int64, lc float64) {
	t.Helper()
	if gf != lf {
		t.Fatalf("%s: flow %d != legacy %d", name, gf, lf)
	}
	if gc != lc {
		t.Fatalf("%s: cost %v != legacy %v (diff %g)", name, gc, lc, gc-lc)
	}
	for x := range refs {
		if g.Flow(refs[x]) != l.Flow(lrefs[x]) {
			t.Fatalf("%s: arc %d flow %d != legacy %d", name, x, g.Flow(refs[x]), l.Flow(lrefs[x]))
		}
	}
}

// TestBitIdenticalToLegacySolver drives the CSR solver and the seed solver
// over random bipartite assignment instances with continuous float costs
// (as the placement loop produces — quadratic distances, no exact ties)
// and requires exactly equal flow, cost, and per-arc flows, with full and
// with sink-settled searches.
func TestBitIdenticalToLegacySolver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(10)
		m := n + rng.Intn(6)
		negative := trial%4 == 0
		shift := 0.0
		if negative {
			shift = -30
		}
		src, sink := 0, n+m+1
		var edges []stagedEdge
		// Interleave src arcs, candidate arcs and sink arcs exactly as
		// assign.solveOnce historically did, to match adjacency order.
		sinkSeen := make([]bool, m)
		for i := 0; i < n; i++ {
			edges = append(edges, stagedEdge{src, 1 + i, 1, 0})
			k := 1 + rng.Intn(m)
			start := rng.Intn(m)
			for x := 0; x < k; x++ {
				j := (start + x) % m
				c := rng.Float64()*200 + shift
				edges = append(edges, stagedEdge{1 + i, 1 + n + j, 1, c})
				if !sinkSeen[j] {
					sinkSeen[j] = true
					edges = append(edges, stagedEdge{1 + n + j, sink, 1, 0})
				}
			}
		}
		for _, stop := range []bool{false, true} {
			name := fmt.Sprintf("trial %d stopAtSink=%v", trial, stop)
			compareWithLegacy(t, name, n+m+2, edges, src, sink, int64(n), stop)
		}
	}
}

// TestBitIdenticalToLegacyGeneral repeats the comparison on general (non
// bipartite) random networks with multi-unit capacities, exercising the
// multi-augmentation and residual-continuation paths.
func TestBitIdenticalToLegacyGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(8)
		var edges []stagedEdge
		negTrial := trial%5 == 0
		for e := 0; e < 3*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if negTrial && u > v {
				// Negative-cost trials stay acyclic (u < v only): a random
				// cyclic graph with negative arcs can hold a negative
				// cycle, which successive-shortest-paths rejects by
				// design (both solvers panic on it).
				u, v = v, u
			}
			cap := int64(1 + rng.Intn(5))
			c := rng.Float64() * 40
			if negTrial {
				c -= 10
			}
			edges = append(edges, stagedEdge{u, v, cap, c})
		}
		for _, stop := range []bool{false, true} {
			name := fmt.Sprintf("trial %d stopAtSink=%v", trial, stop)
			compareWithLegacy(t, name, n, edges, 0, n-1, math.MaxInt64, stop)
		}
	}
}

// TestDriftMatchesLegacy keeps one warm network alive through rounds that
// drift the way assign's flowNet does — every staged cost rewritten
// (negative on some rounds), candidate arcs toggled on and off with
// SetCap, a few arcs added — and after every Reset+Solve requires exactly
// what a cold legacy build of the same staged edges gives. Disabled arcs
// stay in the legacy build with capacity 0, so this also checks that
// leaving them out of the compiled network changes nothing.
func TestDriftMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, stop := range []bool{false, true} {
		for _, n := range []int{40, 80, 120} {
			m := n + n/2
			const k, pool, rounds = 10, 14, 5
			src, sink := 0, n+m+1
			g := NewSolver(n + m + 2)
			g.StopAtSink = stop
			var edges []stagedEdge
			var refs []ArcID
			add := func(e stagedEdge) {
				edges = append(edges, e)
				refs = append(refs, g.AddEdge(e.u, e.v, e.cap, e.cost))
			}
			siteOf := func(i, x int) int { return (i*m/n + x*5) % m }
			sinkSeen := make([]bool, m)
			cand := make([]int, 0, n*pool) // edge indices of DSP→site arcs
			staged := make([]int, n)
			addCand := func(i int, cap int64) {
				j := siteOf(i, staged[i])
				staged[i]++
				cand = append(cand, len(edges))
				add(stagedEdge{1 + i, 1 + n + j, cap, rng.Float64() * 100})
				if !sinkSeen[j] {
					sinkSeen[j] = true
					add(stagedEdge{1 + n + j, sink, 1, 0})
				}
			}
			for i := 0; i < n; i++ {
				add(stagedEdge{src, 1 + i, 1, 0})
				for x := 0; x < k; x++ {
					addCand(i, 1)
				}
			}
			for r := 0; r < rounds; r++ {
				if r > 0 {
					shift := 0.0
					if r%2 == 0 {
						shift = -40
					}
					for _, x := range cand {
						if rng.Float64() < 0.15 {
							edges[x].cap = 1 - edges[x].cap
							g.SetCap(refs[x], edges[x].cap)
						}
						edges[x].cost = rng.Float64()*100 + shift
						g.UpdateCost(refs[x], edges[x].cost)
					}
					for a := 0; a < 5; a++ {
						if i := rng.Intn(n); staged[i] < pool {
							addCand(i, 1)
						}
					}
				}
				g.Reset()
				gf, gc := g.Solve(src, sink, int64(n))
				l := newLegacyGraph(n + m + 2)
				lrefs := make([]legacyRef, len(edges))
				for x, e := range edges {
					lrefs[x] = l.AddEdge(e.u, e.v, e.cap, e.cost)
				}
				lf, lc := l.MinCostFlow(src, sink, int64(n))
				name := fmt.Sprintf("stopAtSink=%v n=%d round %d", stop, n, r)
				checkAgainstLegacy(t, name, g, refs, gf, gc, l, lrefs, lf, lc)
			}
		}
	}
}
