package assign_test

// This file freezes the seed assignment path — the seed mcmf solver
// (container/heap, unconditional Bellman–Ford, searches from the
// super-source) and the per-iteration network rebuild in solveOnce — as
// an executable reference, and checks that assign.Solve's per-DSP
// shortest-augmenting-path solves produce *bit-identical* results on real
// example designs: same sites, same float cost, same iteration trajectory.
// Both sides report an iterate's cost as its chosen arcs' costs summed
// over the DSPs in index order; the seed flow's own cost sums the same
// arcs in augmenting-path order, which differs in the last bits.

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dsplacer/internal/assign"
	"dsplacer/internal/core"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/experiments"
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
	"dsplacer/internal/par"
)

// ---- seed mcmf (verbatim, renamed) ----

type lgEdge struct {
	To   int
	Cap  int64
	Cost float64
	rev  int
	flow int64
}

type lgGraph struct {
	n   int
	adj [][]lgEdge
}

func newLgGraph(n int) *lgGraph { return &lgGraph{n: n, adj: make([][]lgEdge, n)} }

type lgRef struct{ u, idx int }

func (g *lgGraph) AddEdge(u, v int, cap int64, cost float64) lgRef {
	g.adj[u] = append(g.adj[u], lgEdge{To: v, Cap: cap, Cost: cost, rev: len(g.adj[v])})
	g.adj[v] = append(g.adj[v], lgEdge{To: u, Cap: 0, Cost: -cost, rev: len(g.adj[u]) - 1})
	return lgRef{u: u, idx: len(g.adj[u]) - 1}
}

func (g *lgGraph) Flow(r lgRef) int64 { return g.adj[r.u][r.idx].flow }

type lgPQItem struct {
	node int
	dist float64
}
type lgPQ []lgPQItem

func (q lgPQ) Len() int            { return len(q) }
func (q lgPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q lgPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *lgPQ) Push(x interface{}) { *q = append(*q, x.(lgPQItem)) }
func (q *lgPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (g *lgGraph) MinCostFlow(s, t int, maxFlow int64) (flow int64, cost float64) {
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
		q := &lgPQ{{node: s, dist: 0}}
		for q.Len() > 0 {
			it := heap.Pop(q).(lgPQItem)
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
					heap.Push(q, lgPQItem{node: e.To, dist: nd})
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

func (g *lgGraph) bellmanFordPotentials(s int) []float64 {
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

// ---- seed assign.Solve (verbatim modulo renames; stage calls dropped) ----

type lgNeighbor struct {
	cell   int
	weight float64
}

type lgSiteIndex struct {
	grid *geom.GridIndex
	all  []int
}

func newLgSiteIndex(locs []geom.Point) *lgSiteIndex {
	all := make([]int, len(locs))
	for i := range all {
		all[i] = i
	}
	return &lgSiteIndex{grid: geom.NewGridIndex(locs), all: all}
}

func (s *lgSiteIndex) nearest(target geom.Point, k int, buf *geom.NearestBuf) []int {
	if k >= len(s.all) {
		return s.all
	}
	return s.grid.Nearest(target, k, buf)
}

type lgCandScratch struct {
	buf   geom.NearestBuf
	stamp []int
	epoch int
}

func lgWithDefaults(p *assign.Problem) *assign.Problem {
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

func lgCandidateSites(p *assign.Problem, sidx *lgSiteIndex, nbrs [][]lgNeighbor,
	prevPos []geom.Point, cascTarget []*geom.Point, k int, idx map[int]int) [][]int {
	N := len(p.DSPs)
	M := len(sidx.all)
	if k > M {
		k = M
	}
	return par.MapWorker(N,
		func(int) *lgCandScratch { return &lgCandScratch{stamp: make([]int, M)} },
		func(sc *lgCandScratch, i int) []int {
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
			target := lgCentroid(p, i, nbrs, prevPos, idx)
			addSet(sidx.nearest(target, k, &sc.buf))
			addSet(sidx.nearest(prevPos[i], k/2+1, &sc.buf))
			if ct := cascTarget[i]; ct != nil {
				addSet(sidx.nearest(*ct, k/2+1, &sc.buf))
			}
			return out
		})
}

func lgCentroid(p *assign.Problem, i int, nbrs [][]lgNeighbor, prevPos []geom.Point, idx map[int]int) geom.Point {
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

func lgEdgeCost(p *assign.Problem, i, j int, locs []geom.Point, cosOf []float64,
	nbrs [][]lgNeighbor, lambdaCoeff []float64, prevPos []geom.Point,
	cascTarget []*geom.Point, idx map[int]int, iter int) float64 {
	lj := locs[j]
	cost := 0.0
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
	cost += lambdaCoeff[i] * cosOf[j]
	if ct := cascTarget[i]; ct != nil {
		dx := lj.X - ct.X
		dy := lj.Y - ct.Y
		cost += p.Eta * (dx*dx + dy*dy)
	}
	{
		d := lj.Manhattan(prevPos[i])
		cost += p.Stability * float64(iter) * d * d
	}
	return cost
}

func lgSolveOnce(p *assign.Problem, sidx *lgSiteIndex, locs []geom.Point, cosOf []float64,
	nbrs [][]lgNeighbor, lambdaCoeff []float64, prevPos []geom.Point,
	prevSite []int, cascTarget []*geom.Point, kCand int, idx map[int]int, iter int) ([]int, float64, error) {
	N := len(p.DSPs)
	M := len(locs)
	for ; ; kCand *= 2 {
		if kCand > M {
			kCand = M
		}
		cands := lgCandidateSites(p, sidx, nbrs, prevPos, cascTarget, kCand, idx)
		costs := par.Map(N, func(i int) []float64 {
			row := make([]float64, len(cands[i]))
			for x, j := range cands[i] {
				row[x] = lgEdgeCost(p, i, j, locs, cosOf, nbrs, lambdaCoeff,
					prevPos, cascTarget, idx, iter)
			}
			return row
		})
		g := newLgGraph(N + M + 2)
		src, sink := 0, N+M+1
		type arc struct {
			ref  lgRef
			dsp  int
			site int
			cost float64
		}
		var arcs []arc
		usedSite := make(map[int]bool)
		for i := 0; i < N; i++ {
			g.AddEdge(src, 1+i, 1, 0)
			for x, j := range cands[i] {
				ref := g.AddEdge(1+i, 1+N+j, 1, costs[i][x])
				arcs = append(arcs, arc{ref: ref, dsp: i, site: j, cost: costs[i][x]})
				if !usedSite[j] {
					usedSite[j] = true
					g.AddEdge(1+N+j, sink, 1, 0)
				}
			}
		}
		flow, _ := g.MinCostFlow(src, sink, int64(N))
		if flow == int64(N) {
			assignment := make([]int, N)
			chosen := make([]float64, N)
			for i := range assignment {
				assignment[i] = -1
			}
			for _, a := range arcs {
				if g.Flow(a.ref) == 1 {
					assignment[a.dsp] = a.site
					chosen[a.dsp] = a.cost
				}
			}
			cost := 0.0
			for i, j := range assignment {
				if j < 0 {
					return nil, 0, fmt.Errorf("legacy: DSP %d unassigned despite full flow", p.DSPs[i])
				}
				cost += chosen[i]
			}
			return assignment, cost, nil
		}
		if kCand == M {
			return nil, 0, fmt.Errorf("legacy: no perfect assignment with full candidate set (flow %d < %d)", flow, N)
		}
	}
}

func lgSolve(p *assign.Problem) (*assign.Result, error) {
	p = lgWithDefaults(p)
	sites := p.Device.DSPSites()
	M := len(sites)
	N := len(p.DSPs)
	if N == 0 {
		return &assign.Result{SiteOf: map[int]int{}, Converged: true}, nil
	}
	if N > M {
		return nil, fmt.Errorf("legacy: %d DSPs exceed %d device sites", N, M)
	}
	locs := make([]geom.Point, M)
	for j, s := range sites {
		locs[j] = p.Device.Loc(s)
	}
	sidx := newLgSiteIndex(locs)
	idx := make(map[int]int, N)
	for i, c := range p.DSPs {
		idx[c] = i
	}
	nbrs := make([][]lgNeighbor, N)
	addNbr := func(dspCell, other int, w float64) {
		if i, ok := idx[dspCell]; ok && dspCell != other {
			nbrs[i] = append(nbrs[i], lgNeighbor{cell: other, weight: w})
		}
	}
	for _, n := range p.Netlist.Nets {
		for _, s := range n.Sinks {
			addNbr(n.Driver, s, n.Weight)
			addNbr(s, n.Driver, n.Weight)
		}
	}
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
	prevPos := make([]geom.Point, N)
	for i, c := range p.DSPs {
		prevPos[i] = p.Pos[c]
	}
	prevSite := make([]int, N)
	for i := range prevSite {
		prevSite[i] = -1
	}
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
	res := &assign.Result{SiteOf: make(map[int]int, N)}
	kCand := p.Candidates
	var prevPrev []int
	for iter := 1; iter <= p.Iterations; iter++ {
		updateCascTargets()
		assignment, cost, err := lgSolveOnce(p, sidx, locs, cosOf,
			nbrs, lambdaCoeff, prevPos, prevSite, cascTarget, kCand, idx, iter)
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
		if float64(changed) <= p.ConvergedFrac*float64(N) || cycle {
			res.Converged = true
			break
		}
	}
	for i, c := range p.DSPs {
		res.SiteOf[c] = prevSite[i]
	}
	return res, nil
}

// ---- the comparisons ----

func compareToSeed(t *testing.T, name string, p *assign.Problem) {
	t.Helper()
	got, err := assign.Solve(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: new solver: %v", name, err)
	}
	want, err := lgSolve(p)
	if err != nil {
		t.Fatalf("%s: seed solver: %v", name, err)
	}
	if !reflect.DeepEqual(got.SiteOf, want.SiteOf) {
		diff := 0
		for c, j := range got.SiteOf {
			if want.SiteOf[c] != j {
				diff++
			}
		}
		t.Errorf("%s: SiteOf differs from seed on %d of %d DSPs", name, diff, len(got.SiteOf))
	}
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v != seed %v (diff %g)", name, got.Cost, want.Cost, got.Cost-want.Cost)
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Errorf("%s: trajectory (%d,%v) != seed (%d,%v)", name,
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

// TestBitIdenticalToSeedOnExamples runs assign.Solve and the frozen seed
// path on the mini example designs and demands identical
// placements, costs and iteration trajectories.
func TestBitIdenticalToSeedOnExamples(t *testing.T) {
	suite := experiments.NewSuite(experiments.MiniSpecs()[:3])
	for _, spec := range suite.Specs {
		nl, err := suite.Netlist(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := core.OracleIdentifier{}.Identify(context.Background(), nl)
		if err != nil {
			t.Fatal(err)
		}
		dg := dspgraph.Build(nl, dspgraph.Config{})
		keep := make(map[int]bool, len(ids))
		for _, c := range ids {
			keep[c] = true
		}
		pos := make([]geom.Point, nl.NumCells())
		for i, c := range nl.Cells {
			if c.Fixed {
				pos[i] = c.FixedAt
				continue
			}
			pos[i] = geom.Point{
				X: math.Mod(float64(i)*37.3, suite.Dev.Width),
				Y: math.Mod(float64(i)*61.7, suite.Dev.Height),
			}
		}
		p := &assign.Problem{
			Device: suite.Dev, Netlist: nl,
			Graph: dg.Filter(func(id int) bool { return keep[id] }),
			DSPs:  ids, Pos: pos, Iterations: 8,
		}
		compareToSeed(t, spec.Name, p)
	}
}

// TestBitIdenticalToSeedSmall repeats the comparison on the small
// hand-built problems the unit tests use (cascade macros, tight devices,
// full candidate sets).
func TestBitIdenticalToSeedSmall(t *testing.T) {
	dev, err := fpga.NewDevice(fpga.Config{
		Name: "small", Pattern: "CCDC", Repeats: 4, RegionRows: 2,
		PSWidth: 2, PSHeight: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(nd int, a0, a1 geom.Point, macro bool) *assign.Problem {
		nl := netlist.New("lg")
		left := nl.AddFixedCell("a0", netlist.IO, a0)
		right := nl.AddFixedCell("a1", netlist.IO, a1)
		var ids []int
		prev := left.ID
		for i := 0; i < nd; i++ {
			d := nl.AddCell("d", netlist.DSP)
			d.DatapathTruth = true
			ids = append(ids, d.ID)
			nl.AddNet("n", prev, d.ID)
			prev = d.ID
		}
		nl.AddNet("out", prev, right.ID)
		if macro {
			nl.AddMacro(ids)
		}
		// Distinct initial positions: exact cost ties are resolved in a
		// different (equally optimal) order by the per-DSP searches, so
		// bit-identity is only promised for tie-free inputs — which is what
		// global placement produces (see DESIGN.md).
		pos := make([]geom.Point, nl.NumCells())
		for i, c := range nl.Cells {
			if c.Fixed {
				pos[i] = c.FixedAt
			} else {
				pos[i] = geom.Point{X: 4 + 0.37*float64(i), Y: 20 + 0.61*float64(i)}
			}
		}
		dg := dspgraph.Build(nl, dspgraph.Config{})
		return &assign.Problem{Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
			Pos: pos, Iterations: 20}
	}
	// chain6 ties exactly at iteration 2: both solvers reach the optimal
	// cost 197.29206570043135, but DSP cells 4 and 5 take sites 9 and 57
	// the other way round. The runs end on the same sites, after 4 and 3
	// iterations. Like chain12 below, it is compared bit for bit through
	// iteration 1 and on its optimal cost at the tied iteration.
	p6 := build(6, geom.Point{X: 2, Y: 10}, geom.Point{X: 10, Y: 30}, false)
	p6.Iterations = 1
	compareToSeed(t, "chain6", p6)
	p6b := build(6, geom.Point{X: 2, Y: 10}, geom.Point{X: 10, Y: 30}, false)
	p6b.Iterations = 2
	compareTiedCost(t, "chain6 iter2", p6b)
	compareToSeed(t, "macro4", build(4, geom.Point{X: 4, Y: 20}, geom.Point{X: 4, Y: 30}, true))
	p12 := build(12, geom.Point{X: 1, Y: 5}, geom.Point{X: 12, Y: 40}, false)
	p12.Iterations = 1
	compareToSeed(t, "chain12", p12)

	// chain12 beyond iteration 1 exercises the tie caveat: once prevPos
	// snaps to grid site coordinates, DSP↔DSP cost terms tie exactly and
	// the two solvers may pick different (equally optimal) assignments —
	// trajectories then diverge. The contract on ties is equal optimal
	// cost per iteration, not identical argmin; assert it at the first
	// tied iteration.
	p12b := build(12, geom.Point{X: 1, Y: 5}, geom.Point{X: 12, Y: 40}, false)
	p12b.Iterations = 2
	compareTiedCost(t, "chain12 iter2", p12b)
}

// compareTiedCost requires assign.Solve and the seed path to reach the
// same cost at the problem's last iteration, where an exact tie lets them
// pick different optimal assignments.
func compareTiedCost(t *testing.T, name string, p *assign.Problem) {
	t.Helper()
	got, err := assign.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lgSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Errorf("%s: tied optimum cost %v != seed %v", name, got.Cost, want.Cost)
	}
}
