// Package assign implements the datapath-driven DSP placement of §IV-A:
// the 0-1 quadratic assignment of datapath DSP cells to DSP sites (Eq. 7)
// is linearized around the previous iterate (Eq. 9, the TILA-style
// heuristic) and each iterate is solved exactly as a min-cost bipartite
// flow, whose total unimodularity guarantees an integral assignment. The
// soft datapath constraint (Eq. 6) enters as the λ·cos-angle penalty and
// the cascade constraint (Eq. 5) as the η adjacency reward.
package assign

import (
	"context"
	"fmt"

	"dsplacer/internal/dspgraph"
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/mcmf"
	"dsplacer/internal/netlist"
	"dsplacer/internal/par"
	"dsplacer/internal/stage"
)

// Problem bundles the inputs of one datapath DSP placement pass.
type Problem struct {
	Device  *fpga.Device
	Netlist *netlist.Netlist
	// Graph is the (filtered) datapath DSP graph; its edges carry the
	// λ-penalty direction information.
	Graph *dspgraph.Graph
	// DSPs lists the datapath DSP cell ids to place (the set N of Eq. 4).
	DSPs []int
	// Pos holds the current location of every netlist cell; non-datapath
	// cells act as fixed anchors during this pass (Eq. 7: their assignment
	// variables are constant).
	Pos []geom.Point

	// Lambda weighs the datapath cos-angle penalty (paper: 100).
	Lambda float64
	// Eta rewards cascade-adjacent site choices (relaxation of Eq. 5).
	Eta float64
	// Iterations bounds the linearize-and-solve loop (paper: 50).
	Iterations int
	// Candidates is the per-DSP candidate site count; the bipartite graph
	// is grown automatically if a perfect assignment needs more.
	Candidates int
	// Stability weighs a proximal term pulling each DSP toward its
	// previous-iterate position; it grows linearly with the iteration
	// number, damping the oscillations the pure linearization can produce.
	Stability float64
	// ConvergedFrac stops the iteration once the fraction of DSPs whose
	// site changed falls to or below this threshold (default 0.01). A few
	// stragglers trading equivalent sites back and forth do not improve
	// the objective; stopping early keeps the Fig. 8 runtime profile in
	// line with the paper's fast C++ MCF.
	ConvergedFrac float64
	// Stages receives the solve's phase timings (assign.solve,
	// assign.candidates, assign.flow) and its assign.iterations count; nil
	// records nothing.
	Stages *stage.Recorder
}

// IterStats is one row of the per-iteration convergence trace.
type IterStats struct {
	// Iter is 1-based.
	Iter int `json:"iter"`
	// Objective is the linearized min-cost-flow objective of the iterate:
	// the chosen arcs' costs summed over the DSPs in index order.
	Objective float64 `json:"objective"`
	// MovedFrac is the fraction of DSPs whose site changed this iterate.
	MovedFrac float64 `json:"moved_frac"`
	// HPWL is the anchored datapath wirelength of the iterate: Σ over
	// datapath DSPs of Σ over their net neighbors of weight·L1 distance
	// (datapath–datapath edges counted from both ends).
	HPWL float64 `json:"hpwl"`
}

// Result is the outcome of Solve.
type Result struct {
	// SiteOf maps each datapath DSP cell id to an index into
	// Device.DSPSites().
	SiteOf map[int]int
	// Iterations actually executed and whether the fixed point was reached
	// before the budget.
	Iterations int
	Converged  bool
	// Cost is the final iterate's Objective (diagnostic only).
	Cost float64
	// StopReason says why the loop ended: "converged" (fixed point or
	// 2-cycle) or "budget" (iteration cap hit).
	StopReason string
	// Trace is the per-iteration convergence trace: one row per executed
	// iterate with the linearized objective, moved fraction and anchored
	// wirelength.
	Trace []IterStats
}

func (p *Problem) withDefaults() *Problem {
	q := *p
	if q.Lambda == 0 {
		q.Lambda = 100
	}
	if q.Eta == 0 {
		q.Eta = 50
	}
	if q.Iterations == 0 {
		q.Iterations = 50
	}
	if q.Candidates == 0 {
		q.Candidates = 24
	}
	if q.Stability == 0 {
		q.Stability = 0.5
	}
	if q.ConvergedFrac == 0 {
		q.ConvergedFrac = 0.01
	}
	return &q
}

// neighbor is one wirelength attraction acting on a DSP.
type neighbor struct {
	cell   int
	weight float64
}

// Solve runs the iterative linearized assignment. ctx is consulted at the
// top of every linearization iteration: once it is done, Solve returns
// ctx.Err() (wrapped) within one iteration, so a canceled placement job
// stops paying for the 50-iteration budget almost immediately.
func Solve(ctx context.Context, p *Problem) (*Result, error) {
	defer p.Stages.Start("assign.solve")()
	p = p.withDefaults()
	sites := p.Device.DSPSites()
	M := len(sites)
	N := len(p.DSPs)
	if N == 0 {
		return &Result{SiteOf: map[int]int{}, Converged: true, StopReason: "converged"}, nil
	}
	if N > M {
		return nil, fmt.Errorf("assign: %d DSPs exceed %d device sites", N, M)
	}
	if len(p.Pos) != p.Netlist.NumCells() {
		return nil, fmt.Errorf("assign: Pos has %d entries, want %d", len(p.Pos), p.Netlist.NumCells())
	}

	locs := make([]geom.Point, M)
	for j, s := range sites {
		locs[j] = p.Device.Loc(s)
	}
	// The site set is fixed for the whole solve: build the spatial index
	// once and let every iteration's candidate queries share it.
	sidx := newSiteIndex(locs)

	idx := make(map[int]int, N) // cell id → dense dsp index
	for i, c := range p.DSPs {
		idx[c] = i
	}

	// Wirelength neighbors per datapath DSP, from the netlist's driver→sink
	// edges (the E term of Eq. 7).
	nbrs := make([][]neighbor, N)
	addNbr := func(dspCell, other int, w float64) {
		if i, ok := idx[dspCell]; ok && dspCell != other {
			nbrs[i] = append(nbrs[i], neighbor{cell: other, weight: w})
		}
	}
	for _, n := range p.Netlist.Nets {
		for _, s := range n.Sinks {
			addNbr(n.Driver, s, n.Weight)
			addNbr(s, n.Driver, n.Weight)
		}
	}

	// Datapath-graph roles for the λ penalty: +λ for predecessors,
	// −λ for successors of each datapath edge (Eq. 6 direction).
	lambdaCoeff := make([]float64, N)
	for _, e := range p.Graph.Edges {
		if i, ok := idx[e.From]; ok {
			lambdaCoeff[i] += p.Lambda
		}
		if i, ok := idx[e.To]; ok {
			lambdaCoeff[i] -= p.Lambda
		}
	}
	psCorner := p.Device.PSCorner()
	cosOf := make([]float64, M)
	for j := range locs {
		cosOf[j] = locs[j].Sub(psCorner).CosAngle()
	}

	// Previous-iterate positions start from the global-placement locations.
	prevPos := make([]geom.Point, N)
	for i, c := range p.DSPs {
		prevPos[i] = p.Pos[c]
	}
	prevSite := make([]int, N)
	for i := range prevSite {
		prevSite[i] = -1
	}

	// Macro chains wholly inside the datapath set, as dense-index lists in
	// cascade order. The η penalty pulls each member toward a "ladder"
	// position derived from the macro centroid, a coherent relaxation of
	// the pairwise Eq. 5 penalty.
	var macros [][]int
	for _, m := range p.Netlist.Macros {
		chain := make([]int, 0, len(m))
		for _, cid := range m {
			if di, ok := idx[cid]; ok {
				chain = append(chain, di)
			} else {
				chain = nil
				break
			}
		}
		if len(chain) >= 2 {
			macros = append(macros, chain)
		}
	}
	// cascTarget[i] is recomputed each iteration (nil when i is unconstrained).
	cascTarget := make([]*geom.Point, N)
	nominalPitch := 1.0
	if cols := p.Device.ColumnsOf(fpga.DSPRes); len(cols) > 0 {
		nominalPitch = p.Device.Columns[cols[0]].YPitch
	}
	updateCascTargets := func() {
		for i := range cascTarget {
			cascTarget[i] = nil
		}
		for _, chain := range macros {
			var c geom.Point
			for _, di := range chain {
				c = c.Add(prevPos[di])
			}
			c = c.Scale(1 / float64(len(chain)))
			mid := float64(len(chain)-1) / 2
			for rank, di := range chain {
				t := geom.Point{X: c.X, Y: c.Y + (float64(rank)-mid)*nominalPitch}
				tt := t
				cascTarget[di] = &tt
			}
		}
	}

	// anchoredHPWL is the L1 wirelength of the current iterate: every
	// datapath DSP summed against its anchors (fixed cells at their
	// placement, datapath neighbors at the iterate). The trace records it
	// per iteration.
	anchoredHPWL := func() float64 {
		h := 0.0
		for i := range nbrs {
			pi := prevPos[i]
			for _, nb := range nbrs[i] {
				var at geom.Point
				if di, ok := idx[nb.cell]; ok {
					at = prevPos[di]
				} else {
					at = p.Pos[nb.cell]
				}
				h += nb.weight * pi.Manhattan(at)
			}
		}
		return h
	}

	res := &Result{SiteOf: make(map[int]int, N)}
	var prevPrev []int // assignment two iterations ago, for 2-cycle detection

	// One assignment solver serves every iterate. Only its scratch storage
	// carries over: each iterate solves from an empty matching with zero
	// prices.
	var asg mcmf.Assigner

	for iter := 1; iter <= p.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("assign: canceled before iteration %d: %w", iter, err)
		}
		updateCascTargets()
		assignment, cost, err := solveOnce(p, &asg, sidx, locs, cosOf,
			nbrs, lambdaCoeff, prevPos, cascTarget, idx, iter)
		if err != nil {
			return nil, err
		}
		res.Cost = cost
		res.Iterations = iter
		changed := 0
		cycle := prevPrev != nil
		for i, j := range assignment {
			if prevSite[i] != j {
				changed++
			}
			if cycle && prevPrev[i] != j {
				cycle = false
			}
		}
		prevPrev = append(prevPrev[:0], prevSite...)
		for i, j := range assignment {
			prevSite[i] = j
			prevPos[i] = locs[j]
		}

		res.Trace = append(res.Trace, IterStats{
			Iter: iter, Objective: cost,
			MovedFrac: float64(changed) / float64(N), HPWL: anchoredHPWL(),
		})

		if float64(changed) <= p.ConvergedFrac*float64(N) || cycle {
			// Fixed point (within tolerance), or a period-2 oscillation of
			// the linearization — both mean no useful progress remains.
			res.Converged = true
			res.StopReason = "converged"
			break
		}
	}
	if res.StopReason == "" {
		res.StopReason = "budget"
	}
	for i, c := range p.DSPs {
		res.SiteOf[c] = prevSite[i]
	}
	p.Stages.AddN("assign.iterations", int64(res.Iterations))
	return res, nil
}

// solveOnce solves one linearized assignment (Eq. 8–9) exactly over the
// DSPs' candidate sites. The per-cell candidate selection and cost rows
// are computed in parallel (each cell's row depends only on that cell),
// then the assignment is solved serially in cell order, so the result is
// independent of the worker count. When the candidate arcs admit no
// perfect assignment, the candidate count doubles, up to every site.
func solveOnce(p *Problem, asg *mcmf.Assigner, sidx *siteIndex, locs []geom.Point, cosOf []float64,
	nbrs [][]neighbor, lambdaCoeff []float64, prevPos []geom.Point,
	cascTarget []*geom.Point, idx map[int]int, iter int) ([]int, float64, error) {

	N := len(p.DSPs)
	M := len(locs)

	for kCand := p.Candidates; ; kCand *= 2 {
		if kCand > M {
			kCand = M
		}
		stopCand := p.Stages.Start("assign.candidates")
		cands := candidateSites(p, sidx, nbrs, prevPos, cascTarget, kCand, idx)
		costs := par.Map(N, func(i int) []float64 {
			row := make([]float64, len(cands[i]))
			for x, j := range cands[i] {
				row[x] = edgeCost(p, i, j, locs, cosOf, nbrs, lambdaCoeff,
					prevPos, cascTarget, idx, iter)
			}
			return row
		})
		stopCand()
		stopFlow := p.Stages.Start("assign.flow")
		assignment, cost, ok := asg.Solve(M, cands, costs)
		stopFlow()
		if ok {
			return assignment, cost, nil
		}
		if kCand == M {
			return nil, 0, fmt.Errorf("assign: no perfect assignment of %d DSPs with full candidate set", N)
		}
	}
}

// siteIndex bundles the spatial grid over the DSP-site locations with the
// precomputed "every site, ascending" answer used when a query wants at
// least the whole set (the historical nearestSites contract).
type siteIndex struct {
	grid *geom.GridIndex
	all  []int // 0..M-1
}

func newSiteIndex(locs []geom.Point) *siteIndex {
	all := make([]int, len(locs))
	for i := range all {
		all[i] = i
	}
	return &siteIndex{grid: geom.NewGridIndex(locs), all: all}
}

// nearest returns the k sites closest to target (Manhattan, ties by index),
// or every site in ascending index order when k covers the whole set. The
// result aliases buf and is only valid until buf's next query.
func (s *siteIndex) nearest(target geom.Point, k int, buf *geom.NearestBuf) []int {
	if k >= len(s.all) {
		return s.all
	}
	return s.grid.Nearest(target, k, buf)
}

// candScratch is the per-worker state of the parallel candidate phase: the
// grid-query buffer plus an epoch-stamped dedup array (replacing a per-cell
// map allocation).
type candScratch struct {
	buf   geom.NearestBuf
	stamp []int
	epoch int
}

// candidateSites selects, per DSP, the k sites nearest to the wirelength
// centroid of its anchors, merged with sites near its previous position and
// near its cascade target, so the iterate can both exploit and stay stable.
// Each cell's candidate list depends only on that cell, so the cells fan
// out across the worker pool; list contents and order are identical to the
// serial computation.
func candidateSites(p *Problem, sidx *siteIndex, nbrs [][]neighbor,
	prevPos []geom.Point, cascTarget []*geom.Point, k int, idx map[int]int) [][]int {

	N := len(p.DSPs)
	M := len(sidx.all)
	if k > M {
		k = M
	}
	return par.MapWorker(N,
		func(int) *candScratch { return &candScratch{stamp: make([]int, M)} },
		func(sc *candScratch, i int) []int {
			sc.epoch++
			var out []int
			addSet := func(set []int) {
				for _, j := range set {
					if sc.stamp[j] != sc.epoch {
						sc.stamp[j] = sc.epoch
						out = append(out, j)
					}
				}
			}
			target := centroid(p, i, nbrs, prevPos, idx)
			addSet(sidx.nearest(target, k, &sc.buf))
			addSet(sidx.nearest(prevPos[i], k/2+1, &sc.buf))
			if ct := cascTarget[i]; ct != nil {
				addSet(sidx.nearest(*ct, k/2+1, &sc.buf))
			}
			return out
		})
}

// centroid returns the weighted mean location of a DSP's anchors; datapath
// DSP neighbors contribute their previous-iterate positions.
func centroid(p *Problem, i int, nbrs [][]neighbor, prevPos []geom.Point, idx map[int]int) geom.Point {
	var sum geom.Point
	var w float64
	for _, nb := range nbrs[i] {
		var at geom.Point
		if di, ok := idx[nb.cell]; ok {
			at = prevPos[di]
		} else {
			at = p.Pos[nb.cell]
		}
		sum = sum.Add(at.Scale(nb.weight))
		w += nb.weight
	}
	if w == 0 {
		return prevPos[i]
	}
	return sum.Scale(1 / w)
}

// edgeCost evaluates the linearized per-assignment cost of putting dense
// DSP i on site j.
func edgeCost(p *Problem, i, j int, locs []geom.Point, cosOf []float64,
	nbrs [][]neighbor, lambdaCoeff []float64, prevPos []geom.Point,
	cascTarget []*geom.Point, idx map[int]int, iter int) float64 {

	lj := locs[j]
	cost := 0.0
	// Quadratic wirelength term, linearized: squared distance to each
	// anchor (fixed cells at their placement, datapath DSPs at the
	// previous iterate).
	for _, nb := range nbrs[i] {
		var at geom.Point
		if di, ok := idx[nb.cell]; ok {
			at = prevPos[di]
		} else {
			at = p.Pos[nb.cell]
		}
		dx := lj.X - at.X
		dy := lj.Y - at.Y
		cost += nb.weight * (dx*dx + dy*dy)
	}
	// Datapath angle penalty (Eq. 6): predecessors pay +λ·cosθ, successors
	// −λ·cosθ, steering the flow from above the PS toward its right.
	cost += lambdaCoeff[i] * cosOf[j]
	// Cascade penalty (relaxed Eq. 5): pull toward the macro's centroid
	// ladder position for this member's cascade rank.
	if ct := cascTarget[i]; ct != nil {
		dx := lj.X - ct.X
		dy := lj.Y - ct.Y
		cost += p.Eta * (dx*dx + dy*dy)
	}
	// Proximal damping: a growing pull toward the previous iterate keeps
	// the linearization from oscillating between symmetric optima.
	{
		d := lj.Manhattan(prevPos[i])
		cost += p.Stability * float64(iter) * d * d
	}
	return cost
}

// Objective evaluates the true (un-linearized) Eq. 7 objective of an
// assignment: quadratic wirelength + λ datapath penalty + η cascade
// violation penalty. Used by tests and the ablation benches.
func Objective(p *Problem, siteOf map[int]int) float64 {
	pp := p.withDefaults()
	sites := pp.Device.DSPSites()
	locAt := func(cell int) geom.Point {
		if j, ok := siteOf[cell]; ok {
			return pp.Device.Loc(sites[j])
		}
		return pp.Pos[cell]
	}
	inSet := make(map[int]bool, len(pp.DSPs))
	for _, c := range pp.DSPs {
		inSet[c] = true
	}
	obj := 0.0
	for _, n := range pp.Netlist.Nets {
		for _, s := range n.Sinks {
			if !inSet[n.Driver] && !inSet[s] {
				continue
			}
			a, b := locAt(n.Driver), locAt(s)
			dx, dy := a.X-b.X, a.Y-b.Y
			obj += n.Weight * (dx*dx + dy*dy)
		}
	}
	psCorner := pp.Device.PSCorner()
	for _, e := range pp.Graph.Edges {
		if !inSet[e.From] || !inSet[e.To] {
			continue
		}
		cp := locAt(e.From).Sub(psCorner).CosAngle()
		cs := locAt(e.To).Sub(psCorner).CosAngle()
		obj += pp.Lambda * (cp - cs)
	}
	for _, c := range pp.Netlist.CascadePairs() {
		if !inSet[c[0]] || !inSet[c[1]] {
			continue
		}
		jp, okP := siteOf[c[0]]
		js, okS := siteOf[c[1]]
		if !okP || !okS {
			continue
		}
		sp, ss := sites[jp], sites[js]
		if !(sp.Col == ss.Col && ss.Row == sp.Row+1) {
			obj += pp.Eta
		}
	}
	return obj
}

// Violations counts cascade pairs whose sites are not vertically adjacent
// in one column — the violations the legalizer must repair.
func Violations(dev *fpga.Device, nl *netlist.Netlist, siteOf map[int]int) int {
	sites := dev.DSPSites()
	v := 0
	for _, c := range nl.CascadePairs() {
		jp, okP := siteOf[c[0]]
		js, okS := siteOf[c[1]]
		if !okP || !okS {
			continue
		}
		sp, ss := sites[jp], sites[js]
		if !(sp.Col == ss.Col && ss.Row == sp.Row+1) {
			v++
		}
	}
	return v
}
