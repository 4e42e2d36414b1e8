// Package graph implements the directed-graph machinery DSPlacer needs:
// traversals (BFS, DFS, iterative-deepening DFS), the centrality metrics used
// as GCN node features (betweenness, closeness, eccentricity), feedback-loop
// detection via strongly connected components, and topological ordering for
// timing analysis. Nodes are dense integers 0..N-1.
package graph

import (
	"fmt"
	"slices"
)

// Digraph is a directed graph over nodes 0..N-1 stored as adjacency lists.
// Parallel edges are permitted but usually undesirable; callers that need
// simple graphs should deduplicate before adding.
type Digraph struct {
	out [][]int
	in  [][]int
	m   int
}

// NewDigraph returns an empty directed graph with n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{out: make([][]int, n), in: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.out) }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the directed edge u→v. It panics if either endpoint is out
// of range, since that always indicates a construction bug upstream.
func (g *Digraph) AddEdge(u, v int) {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.N()))
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
}

// Out returns the successors of u. The slice is owned by the graph and must
// not be mutated.
func (g *Digraph) Out(u int) []int { return g.out[u] }

// OutDegree returns the number of outgoing edges of u.
func (g *Digraph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the number of incoming edges of u.
func (g *Digraph) InDegree(u int) int { return len(g.in[u]) }

// Degrees returns the out-degree of every node. On a symmetrized graph
// (Undirected) this is the undirected degree — the diagonal of the
// combinatorial Laplacian the gsp package filters on.
func (g *Digraph) Degrees() []int {
	deg := make([]int, g.N())
	for u := range g.out {
		deg[u] = len(g.out[u])
	}
	return deg
}

// MaxDegree returns the largest out-degree, 0 for an empty graph. 2·MaxDegree
// upper-bounds the combinatorial Laplacian's spectrum, which is the scaling
// the Chebyshev filters in internal/gsp need.
func (g *Digraph) MaxDegree() int {
	max := 0
	for u := range g.out {
		if d := len(g.out[u]); d > max {
			max = d
		}
	}
	return max
}

// Undirected returns the symmetric closure of g: for every edge u→v the
// result has both u→v and v→u (deduplicated). Centrality features in the
// paper are computed on the netlist viewed as an undirected graph.
func (g *Digraph) Undirected() *Digraph {
	keys := make([]uint64, 0, 2*g.m)
	for a := 0; a < g.N(); a++ {
		for _, b := range g.out[a] {
			if a == b {
				continue
			}
			keys = append(keys, EdgeKey(a, b), EdgeKey(b, a))
		}
	}
	return FromEdgeKeys(g.N(), DedupEdges(keys))
}

// FromEdgeKeys builds a graph from packed edges in one pass with exactly-sized
// adjacency lists: a degree-counting prepass replaces the incremental append
// growth of AddEdge, which shows up on netlist-sized graphs. Edges are
// inserted in slice order, so the resulting adjacency order matches a
// sequence of AddEdge calls over the same slice.
func FromEdgeKeys(n int, keys []uint64) *Digraph {
	g := NewDigraph(n)
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	for _, k := range keys {
		a, b := int(k>>32), int(uint32(k))
		if a < 0 || a >= n || b < 0 || b >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", a, b, n))
		}
		outDeg[a]++
		inDeg[b]++
	}
	// All adjacency lists share two backing arrays, sliced per node with the
	// capacity pinned to the node's segment: n small GC-tracked allocations
	// become two, and a later AddEdge reallocates instead of overwriting a
	// neighbor's segment.
	outBack := make([]int, len(keys))
	inBack := make([]int, len(keys))
	outOff := 0
	inOff := 0
	for v := 0; v < n; v++ {
		g.out[v] = outBack[outOff : outOff : outOff+outDeg[v]]
		g.in[v] = inBack[inOff : inOff : inOff+inDeg[v]]
		outOff += outDeg[v]
		inOff += inDeg[v]
	}
	for _, k := range keys {
		a, b := int(k>>32), int(uint32(k))
		g.out[a] = append(g.out[a], b)
		g.in[b] = append(g.in[b], a)
	}
	g.m = len(keys)
	return g
}

// EdgeKey packs a directed edge (a,b) into a uint64 for DedupEdges. Node IDs
// must fit in 32 bits, which every netlist here satisfies by orders of
// magnitude.
func EdgeKey(a, b int) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

// DedupEdges removes duplicate packed edges, returning them sorted by
// (source, target). A single uint64 sort plus compaction replaces the
// per-edge map hashing that dominated graph construction on netlist-sized
// inputs; the sorted order also canonicalizes adjacency lists, so graph
// construction no longer depends on net enumeration order. The input slice
// is sorted in place and reused as the result.
func DedupEdges(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}
