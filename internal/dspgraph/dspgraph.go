// Package dspgraph builds the datapath DSP graph of §III-B: starting from
// the netlist, IDDFS is run from every DSP cell to find the shortest paths
// to other DSPs that do not tunnel through an intermediate DSP, recording
// path length and the cell types along each path. The resulting graph keeps
// only DSP nodes and their direct connectivity, and can be filtered down to
// the datapath DSPs selected by the GCN.
package dspgraph

import (
	"fmt"
	"sort"

	"dsplacer/internal/graph"
	"dsplacer/internal/netlist"
	"dsplacer/internal/par"
	"dsplacer/internal/stage"
)

// CellCounts counts cells by type, indexed by netlist.CellType. A dense
// array instead of a map: at build scale there is one counter set per
// discovered edge, and the map version was one allocation (plus hashing)
// per edge.
type CellCounts [netlist.NumCellTypes]int

// Edge is one DSP→DSP connection discovered by the search.
type Edge struct {
	// From and To are netlist cell ids of the endpoint DSPs; the direction
	// follows signal flow (From drives the path toward To).
	From, To int
	// Dist is the number of netlist hops along the discovered shortest path.
	Dist int
	// PathCells counts the intermediate cells by type — the paper's
	// observation that control-path DSPs see more storage elements along
	// their paths is measurable from this.
	PathCells CellCounts
}

// Graph is the DSP graph: nodes are DSP cell ids.
type Graph struct {
	// Nodes lists DSP cell ids in ascending order.
	Nodes []int
	// Index maps a cell id to its position in Nodes.
	Index map[int]int
	// Edges are the discovered DSP-to-DSP connections.
	Edges []Edge
}

// Config controls the search.
type Config struct {
	// MaxDepth bounds the IDDFS depth (netlist hops); DSP pairs further
	// apart are not considered directly connected. Default 8.
	MaxDepth int
	// Stages receives the build's timing (dspgraph.build); nil records
	// nothing.
	Stages *stage.Recorder
}

// Build runs the construction procedure on nl.
func Build(nl *netlist.Netlist, cfg Config) *Graph {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 8
	}
	g := nl.ToGraph()
	dsp := nl.CellsOfType(netlist.DSP)
	isDSP := make([]bool, nl.NumCells())
	for _, d := range dsp {
		isDSP[d] = true
	}
	dg := &Graph{Nodes: dsp, Index: make(map[int]int, len(dsp))}
	for i, d := range dsp {
		dg.Index[d] = i
	}
	target := func(v int) bool { return isDSP[v] }
	// The per-source searches are independent: fan them across the worker
	// pool, collect each source's edges into its own slot, and concatenate
	// in source order. Within a source the edges are sorted by target, so
	// the merged slice is already in (From, To) order and — map iteration
	// having been removed from the output path — identical for any worker
	// count.
	defer cfg.Stages.Start("dspgraph.build")()
	perSrc := par.MapWorker(len(dsp),
		func(int) *graph.IDDFSScratch { return new(graph.IDDFSScratch) },
		func(sc *graph.IDDFSScratch, i int) []Edge {
			src := dsp[i]
			results := g.IDDFSWith(sc, src, cfg.MaxDepth, target, true)
			es := make([]Edge, 0, len(results))
			for _, r := range results {
				var counts CellCounts
				for _, v := range r.Path[1 : len(r.Path)-1] {
					counts[nl.Cells[v].Type]++
				}
				es = append(es, Edge{
					From: src, To: r.Target, Dist: r.Dist, PathCells: counts,
				})
			}
			sort.Slice(es, func(a, b int) bool { return es[a].To < es[b].To })
			return es
		})
	total := 0
	for _, es := range perSrc {
		total += len(es)
	}
	dg.Edges = make([]Edge, 0, total)
	for _, es := range perSrc {
		dg.Edges = append(dg.Edges, es...)
	}
	sortEdges(dg.Edges)
	return dg
}

func sortEdges(es []Edge) {
	// Deterministic order: by (From, To). sort.Slice instead of the old
	// insertion sort, which was quadratic on adversarial input; here the
	// input is already nearly sorted by construction.
	sort.Slice(es, func(i, j int) bool { return less(es[i], es[j]) })
}

func less(a, b Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// Filter returns a copy of dg retaining only the nodes for which keep is
// true (e.g. the GCN-identified datapath DSPs) and the edges between them —
// the refinement step at the end of §III-B.
func (dg *Graph) Filter(keep func(cellID int) bool) *Graph {
	out := &Graph{Index: make(map[int]int)}
	for _, n := range dg.Nodes {
		if keep(n) {
			out.Index[n] = len(out.Nodes)
			out.Nodes = append(out.Nodes, n)
		}
	}
	for _, e := range dg.Edges {
		if keep(e.From) && keep(e.To) {
			out.Edges = append(out.Edges, e)
		}
	}
	return out
}

// StorageAlongPaths returns, per DSP node, the total number of storage
// elements (FF, BRAM, LUTRAM) on its incident discovered paths. The paper
// observes this is systematically higher for control-path DSPs.
func (dg *Graph) StorageAlongPaths() map[int]int {
	out := make(map[int]int, len(dg.Nodes))
	for _, e := range dg.Edges {
		s := e.PathCells[netlist.FF] + e.PathCells[netlist.BRAM] + e.PathCells[netlist.LUTRAM]
		out[e.From] += s
		out[e.To] += s
	}
	return out
}

// Validate checks internal consistency.
func (dg *Graph) Validate() error {
	for i, n := range dg.Nodes {
		if dg.Index[n] != i {
			return fmt.Errorf("dspgraph: node %d index mismatch", n)
		}
	}
	for _, e := range dg.Edges {
		if _, ok := dg.Index[e.From]; !ok {
			return fmt.Errorf("dspgraph: edge from unknown node %d", e.From)
		}
		if _, ok := dg.Index[e.To]; !ok {
			return fmt.Errorf("dspgraph: edge to unknown node %d", e.To)
		}
		if e.Dist < 1 {
			return fmt.Errorf("dspgraph: edge %d→%d has dist %d", e.From, e.To, e.Dist)
		}
	}
	return nil
}
