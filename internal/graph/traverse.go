package graph

// Unreached marks nodes not reachable from the BFS/IDDFS source.
const Unreached = -1

// BFSDistances returns the unweighted shortest-path distance from src to
// every node, following edges in the forward direction. Unreachable nodes
// get Unreached.
func (g *Digraph) BFSDistances(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	// Head index instead of queue = queue[1:]: the backing array is fully
	// reused, so one BFS does a single allocation however long it runs.
	queue := make([]int, 0, 16)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.out[u] {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// IDDFSResult records one shortest path found by iterative-deepening DFS.
type IDDFSResult struct {
	Target int
	Dist   int
	// Path lists the nodes from the source to Target inclusive.
	Path []int
}

// IDDFSScratch holds the reusable per-worker state of repeated IDDFS calls
// over one graph: the on-stack marks and the current path. Reusing it across
// sources removes the O(N) allocation per search that dominates DSP-graph
// construction on large netlists. A scratch must not be shared between
// concurrent searches; the zero value is ready to use.
type IDDFSScratch struct {
	onPath []bool
	path   []int
}

// IDDFS performs iterative-deepening depth-first search from src, as
// described in §III-B of the paper: it has DFS's O(depth) space footprint
// yet, by deepening one level at a time, the first time a target is reached
// the path is a shortest path. The search stops deepening at maxDepth.
//
// isTarget selects the interesting sinks (DSP nodes, in the paper); the
// source itself is never reported. The returned map is keyed by target node
// and holds the first (hence shortest) path discovered to it. stopAtTarget
// controls whether the search continues *through* target nodes: the paper's
// DSP graph wants direct DSP-to-DSP reachability, so paths must not tunnel
// through an intermediate DSP when stopAtTarget is true.
func (g *Digraph) IDDFS(src, maxDepth int, isTarget func(int) bool, stopAtTarget bool) map[int]IDDFSResult {
	return g.IDDFSWith(new(IDDFSScratch), src, maxDepth, isTarget, stopAtTarget)
}

// IDDFSWith is IDDFS with caller-owned scratch, for callers that sweep many
// sources (dspgraph.Build runs one search per DSP per worker).
func (g *Digraph) IDDFSWith(sc *IDDFSScratch, src, maxDepth int, isTarget func(int) bool, stopAtTarget bool) map[int]IDDFSResult {
	found := make(map[int]IDDFSResult)
	// onPath guards against cycles within the current DFS stack only, which
	// keeps memory at O(depth) in the spirit of IDDFS while remaining exact.
	// Every push is matched by a deferred pop, so the scratch returns to
	// all-false/empty and can be reused as-is by the next search.
	if len(sc.onPath) < g.N() {
		sc.onPath = make([]bool, g.N())
	}
	onPath := sc.onPath
	path := sc.path[:0]

	var dls func(u, limit int) bool // reports whether any node at the frontier remained
	dls = func(u, limit int) bool {
		path = append(path, u)
		onPath[u] = true
		defer func() {
			path = path[:len(path)-1]
			onPath[u] = false
		}()

		if u != src && isTarget(u) {
			if _, ok := found[u]; !ok {
				cp := make([]int, len(path))
				copy(cp, path)
				found[u] = IDDFSResult{Target: u, Dist: len(path) - 1, Path: cp}
			}
			if stopAtTarget {
				return false
			}
		}
		if limit == 0 {
			return len(g.out[u]) > 0
		}
		frontier := false
		for _, v := range g.out[u] {
			if onPath[v] {
				continue
			}
			if dls(v, limit-1) {
				frontier = true
			}
		}
		return frontier
	}

	for depth := 0; depth <= maxDepth; depth++ {
		if !dls(src, depth) {
			break
		}
	}
	sc.path = path // keep any growth for the next search
	return found
}

// TopoSort returns a topological order of g, or ok=false when g has a cycle.
// Kahn's algorithm; ties are broken by node index so the order is
// deterministic.
func (g *Digraph) TopoSort() (order []int, ok bool) {
	indeg := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		indeg[u] = g.InDegree(u)
	}
	// A simple ascending-index ready list keeps determinism without a heap.
	ready := make([]int, 0, g.N())
	for u := 0; u < g.N(); u++ {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	order = make([]int, 0, g.N())
	for head := 0; head < len(ready); head++ {
		u := ready[head]
		order = append(order, u)
		for _, v := range g.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return order, len(order) == g.N()
}
