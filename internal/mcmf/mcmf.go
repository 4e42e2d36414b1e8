// Package mcmf holds the two exact network solvers of the placement flow,
// which stand in for the Lemon solver the paper uses.
//
//   - Assigner (assignment.go) solves the linearized DSP-assignment model
//     of Eq. 8–9, once per linearization iterate (50 per pass): a sparse
//     min-cost bipartite assignment over each DSP's candidate sites, by
//     one shortest-augmenting-path search per DSP. The model is a
//     transportation problem with a totally unimodular constraint matrix,
//     so its optimum is integral and is a DSP→site assignment.
//   - Solver is a general min-cost max-flow by successive shortest paths
//     with Johnson potentials. The inter-column legalizer solves the
//     transportation relaxation of Eq. 10 with it; it builds a fresh
//     network per call.
//
// A Solver stages arcs with AddEdge and compiles them at its first Solve
// into one flat adjacency array per node, no per-node slices: edge k is
// arc 2k and its reverse arc 2k+1, so an arc's reverse is a^1 and the
// reverse arc's residual capacity is the edge's flow. A zero-capacity edge
// is left out of the adjacency in both directions: it can never carry
// flow, and a search would skip it anyway.
//
// Dijkstra runs on an index-based non-boxing binary heap (internal/heapq)
// whose pop order — ties included — replicates container/heap, keeping
// augmenting-path selection, and therefore every downstream placement,
// bit-identical to the historical slice-of-slices solver. The
// Bellman–Ford potential pass is skipped entirely when every arc cost is
// non-negative and the network carries no flow: zero potentials are then
// already valid, and after the first search the shortest-path distances
// take over, exactly as Bellman–Ford's would.
package mcmf

import (
	"fmt"
	"math"
	"slices"

	"dsplacer/internal/heapq"
)

// ArcID is the handle AddEdge returns: the edge's staging index.
type ArcID int32

// Solver is a min-cost-flow network over nodes 0..n-1. The lifecycle is
// AddEdge*, then Solve one or more times, with Flow readable at any point.
// The zero value is not usable; call NewSolver.
type Solver struct {
	n int

	// Arcs in staging order, two per AddEdge: the edge at 2k, its reverse
	// at 2k+1 (tail to[2k+1], negated cost, capacity 0).
	to      []int32
	cost    []float64
	caps    []int64 // residual capacity
	negArcs int     // edges with negative cost

	// The compiled adjacency, built at the first Solve: node u's arcs are
	// adj[head[u]:head[u+1]], every positive-capacity edge's two arcs in
	// staging order — the append order of the historical adjacency lists.
	head []int32 // len n+1; nil until compiled
	adj  []int32

	hasFlow bool // augmentations applied

	// Per-solve scratch, sized at compile time and reused across Solve
	// calls.
	h, dist []float64
	prevArc []int32
	pq      heapq.Heap
}

// NewSolver returns an empty network with n nodes.
func NewSolver(n int) *Solver {
	return &Solver{n: n}
}

// AddEdge stages an arc u→v with the given capacity and per-unit cost and
// returns its handle. Every arc must be added before the first Solve.
func (s *Solver) AddEdge(u, v int, cap int64, cost float64) ArcID {
	if u < 0 || u >= s.n || v < 0 || v >= s.n {
		panic(fmt.Sprintf("mcmf: edge (%d,%d) out of range", u, v))
	}
	if cap < 0 {
		panic("mcmf: negative capacity")
	}
	if s.head != nil {
		panic("mcmf: AddEdge after Solve")
	}
	s.to = append(s.to, int32(v), int32(u))
	s.cost = append(s.cost, cost, -cost)
	s.caps = append(s.caps, cap, 0)
	if cost < 0 {
		s.negArcs++
	}
	return ArcID(len(s.to)/2 - 1)
}

// Flow returns the units currently pushed through the referenced arc.
func (s *Solver) Flow(e ArcID) int64 {
	return s.caps[2*e+1]
}

// compile builds the per-node adjacency over the positive-capacity edges
// and sizes the search scratch.
func (s *Solver) compile() {
	s.head = make([]int32, s.n+1)
	for a := 0; a < len(s.to); a += 2 {
		if s.caps[a] > 0 {
			s.head[s.to[a+1]+1]++
			s.head[s.to[a]+1]++
		}
	}
	for u := 0; u < s.n; u++ { // prefix-sum the degrees in place
		s.head[u+1] += s.head[u]
	}
	s.adj = make([]int32, s.head[s.n])
	next := slices.Clone(s.head[:s.n])
	for a := int32(0); int(a) < len(s.to); a += 2 {
		if s.caps[a] > 0 {
			u, v := s.to[a+1], s.to[a]
			s.adj[next[u]] = a
			next[u]++
			s.adj[next[v]] = a + 1
			next[v]++
		}
	}
	s.h = make([]float64, s.n)
	s.dist = make([]float64, s.n)
	s.prevArc = make([]int32, s.n)
	s.pq.Grow(s.n)
}

// Solve pushes up to maxFlow units from src to dst along successively
// cheapest augmenting paths and returns the amount shipped and its total
// cost. Pass math.MaxInt64 as maxFlow for min-cost *max*-flow. Negative
// arc costs are supported through an initial Bellman–Ford potential pass;
// when every cost is non-negative and the network is flow-free the pass is
// skipped (zero potentials are already valid).
//
// Calling Solve again continues augmenting on the residual network, as the
// historical solver did.
func (s *Solver) Solve(src, dst int, maxFlow int64) (flow int64, cost float64) {
	if src == dst {
		return 0, 0
	}
	if s.head == nil {
		s.compile()
	}

	if s.negArcs > 0 || s.hasFlow {
		// Residual graphs carry negated reverse costs even when the
		// forward costs are non-negative, so a continued solve needs real
		// potentials too.
		s.bellmanFord(src)
	} else {
		clear(s.h)
	}

	for flow < maxFlow {
		s.dijkstra(src)
		if math.IsInf(s.dist[dst], 1) {
			break // dst no longer reachable
		}
		for i, d := range s.dist {
			if !math.IsInf(d, 1) {
				s.h[i] += d
			}
		}
		// Bottleneck along the path, then apply.
		push := maxFlow - flow
		for v := dst; v != src; {
			a := s.prevArc[v]
			if s.caps[a] < push {
				push = s.caps[a]
			}
			v = int(s.to[a^1])
		}
		for v := dst; v != src; {
			a := s.prevArc[v]
			s.caps[a] -= push
			s.caps[a^1] += push
			cost += float64(push) * s.cost[a]
			v = int(s.to[a^1])
		}
		flow += push
		s.hasFlow = true
	}
	return flow, cost
}

// dijkstra runs the reduced-cost shortest-path search from src, filling
// dist and prevArc.
func (s *Solver) dijkstra(src int) {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevArc[i] = -1
	}
	s.dist[src] = 0
	s.pq.Reset()
	s.pq.Push(heapq.Item{Dist: 0, ID: int32(src)})
	for s.pq.Len() > 0 {
		it := s.pq.Pop()
		u := int(it.ID)
		if it.Dist > s.dist[u] {
			continue // stale entry
		}
		if math.IsInf(s.h[u], 1) {
			// Loop-invariant for every arc out of u: a node without a
			// finite potential cannot relax anything (checked once per
			// popped node, not once per arc).
			continue
		}
		hu := s.h[u]
		du := s.dist[u]
		for _, a := range s.adj[s.head[u]:s.head[u+1]] {
			if s.caps[a] <= 0 {
				continue
			}
			v := s.to[a]
			// Reduced cost. With valid potentials it is non-negative up
			// to floating-point noise; clamp the noise at zero or
			// Dijkstra can cycle forever on micro-negative edges when
			// raw costs are large.
			rc := s.cost[a] + hu - s.h[v]
			if rc < 0 {
				rc = 0
			}
			nd := du + rc
			eps := 1e-12 * (1 + math.Abs(nd))
			if nd < s.dist[v]-eps {
				s.dist[v] = nd
				s.prevArc[v] = a
				s.pq.Push(heapq.Item{Dist: nd, ID: v})
			}
		}
	}
}

// bellmanFord fills h with shortest-path potentials from src over the
// residual graph so Dijkstra's reduced costs are non-negative even when
// residual costs are negative. Unreachable nodes keep +Inf.
func (s *Solver) bellmanFord(src int) {
	h := s.h
	for i := range h {
		h[i] = math.Inf(1)
	}
	h[src] = 0
	for iter := 0; iter < s.n; iter++ {
		changed := false
		for u := 0; u < s.n; u++ {
			hu := h[u]
			if math.IsInf(hu, 1) {
				continue
			}
			for _, a := range s.adj[s.head[u]:s.head[u+1]] {
				if s.caps[a] > 0 && hu+s.cost[a] < h[s.to[a]]-1e-12 {
					h[s.to[a]] = hu + s.cost[a]
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
	panic("mcmf: negative cycle in cost graph")
}
