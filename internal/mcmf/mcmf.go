// Package mcmf implements min-cost max-flow via successive shortest paths
// with Johnson potentials. It substitutes for the Lemon solver the paper
// uses: the linearized DSP-assignment model (Eq. 8–9) is a transportation
// problem whose constraint matrix is totally unimodular, so the optimal flow
// is integral and encodes a DSP→site assignment directly.
//
// The solver is built for the placement loop's access pattern: the
// assignment network is solved once per linearization iterate (50 per
// pass), with the same node set, a slowly-growing set of staged arcs whose
// costs change every iterate, and a live subset of them that drifts with
// the candidate sets. A Solver therefore separates the network's
// *structure* from its *state*:
//
//   - AddEdge stages arcs; the first Reset or Solve compiles the live ones
//     (non-zero capacity) into flat CSR arrays (head/to/cost/cap/flow/rev)
//     — no per-node slices, no pointer chasing. A zero-capacity arc is
//     left out in both directions: it can never carry flow, and both
//     searches skip it anyway, so leaving it out changes nothing but the
//     arcs a search scans.
//   - UpdateCost and SetCap rewrite a staged arc in place; Reset restores
//     capacities and zeroes flow so the same compiled network solves the
//     next iterate.
//   - Adding an arc, or a SetCap that switches an arc between zero and
//     non-zero capacity, marks the structure dirty; the next Reset or Solve
//     recompiles the CSR (an O(nodes+arcs) pass) into the arrays it already
//     has, so a steady-state iterate allocates nothing.
//
// Dijkstra runs on an index-based non-boxing binary heap (internal/heapq)
// whose pop order — ties included — replicates container/heap, keeping
// augmenting-path selection, and therefore every downstream placement,
// bit-identical to the historical slice-of-slices solver. The
// Bellman–Ford potential pass is skipped entirely when every staged arc
// cost is non-negative (true for the λ-scaled distance costs the
// assignment loop produces) and the network carries no flow: zero
// potentials are then already valid, and after the first search the
// shortest-path distances take over, exactly as Bellman–Ford's would.
// StopAtSink ends each search once the sink settles (see its comment).
package mcmf

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dsplacer/internal/heapq"
	"dsplacer/internal/stage"
)

// ArcID is the stable handle AddEdge returns: the arc's staging index. It
// survives cost/capacity updates and CSR recompilations.
type ArcID int32

// Solver is a reusable min-cost-flow network over nodes 0..n-1.
// The zero value is not usable; call NewSolver.
type Solver struct {
	// Stages receives the solver's phase timings (mcmf.potentials,
	// mcmf.dijkstra, mcmf.augment); nil records nothing.
	Stages *stage.Recorder

	// StopAtSink ends each shortest-path search as soon as the sink
	// settles, then raises every potential by min(dist, dist[sink])
	// instead of by dist (an unreached node's +Inf becomes dist[sink]),
	// which keeps every reduced cost non-negative. Within one search the
	// augmenting path is the one a full search finds: every later pop has
	// key ≥ dist[sink], so nothing can rewrite a settled node's
	// predecessor. Only the potentials differ, so a later search can break
	// an exact cost tie the other way. The assignment network sets it: its
	// costs are continuous, exact ties have measure zero, and most of a
	// full search is spent past the sink. The inter-column legalizer must
	// not: its |Δx| costs tie whenever groups lie on the same side of two
	// columns, it rounds the split flow to majority columns, and its
	// placements then change (8 of 48 pynq-z2 placements moved, one HPWL
	// from 5184 to 8666).
	StopAtSink bool

	n int

	// Staged arcs, one entry per AddEdge in insertion order, zero-capacity
	// ones included. The CSR is compiled from them.
	eFrom, eTo []int32
	eCap       []int64
	eCost      []float64
	negArcs    int // staged arcs with negative cost, live or not

	// Compiled CSR: two directed arcs per live (non-zero capacity) staged
	// edge, grouped by tail node, per-node order = staging order (matching
	// the historical adjacency-list append order).
	head []int32   // node -> first arc; len n+1
	to   []int32   // arc -> head node
	cost []float64 // arc cost (reverse arcs negated)
	cap0 []int64   // residual-capacity template (reverse arcs 0)
	caps []int64   // working residual capacity
	flow []int64   // units pushed (negative on reverse arcs)
	rev  []int32   // arc -> its reverse arc
	pos  []int32   // ArcID -> CSR index of the forward arc, -1 if not live
	next []int32   // compile scratch: per-node fill cursor

	dirty     bool // structure changed since the last compile
	needReset bool // cost/cap templates edited since the last Reset
	hasFlow   bool // augmentations applied since the last Reset

	// Per-solve scratch, sized at the first compile and reused across
	// Solve calls.
	h, dist []float64
	prevArc []int32
	pq      heapq.Heap
}

// NewSolver returns an empty network with n nodes.
func NewSolver(n int) *Solver {
	return &Solver{n: n, dirty: true}
}

// AddEdge stages an arc u→v with the given capacity and per-unit cost and
// returns its handle. Arcs may be added after a solve; the structure is
// recompiled on the next Reset or Solve, which also clears any flow on
// the network.
func (s *Solver) AddEdge(u, v int, cap int64, cost float64) ArcID {
	if u < 0 || u >= s.n || v < 0 || v >= s.n {
		panic(fmt.Sprintf("mcmf: edge (%d,%d) out of range", u, v))
	}
	if cap < 0 {
		panic("mcmf: negative capacity")
	}
	s.eFrom = append(s.eFrom, int32(u))
	s.eTo = append(s.eTo, int32(v))
	s.eCap = append(s.eCap, cap)
	s.eCost = append(s.eCost, cost)
	if cost < 0 {
		s.negArcs++
	}
	s.dirty = true
	return ArcID(len(s.eFrom) - 1)
}

// UpdateCost rewrites the cost of a staged arc (its reverse arc follows
// with the negated cost); on a disabled arc it takes effect when the arc
// is re-enabled. The current flow becomes meaningless; call Reset (or let
// Solve auto-reset a flow-free network) before solving again.
func (s *Solver) UpdateCost(e ArcID, cost float64) {
	if s.eCost[e] < 0 {
		s.negArcs--
	}
	if cost < 0 {
		s.negArcs++
	}
	s.eCost[e] = cost
	if !s.dirty {
		if f := s.pos[e]; f >= 0 {
			s.cost[f] = cost
			s.cost[s.rev[f]] = -cost
		}
	}
	s.needReset = true
}

// SetCap rewrites the capacity of a staged arc. A capacity of zero
// disables the arc: it leaves the compiled network, exactly as if it were
// absent. Switching an arc between zero and non-zero capacity recompiles
// the network at the next Reset or Solve; any other change edits the
// compiled template in place. Takes effect at the next Reset.
func (s *Solver) SetCap(e ArcID, cap int64) {
	if cap < 0 {
		panic("mcmf: negative capacity")
	}
	if (cap == 0) != (s.eCap[e] == 0) {
		s.dirty = true
	} else if !s.dirty && cap != 0 {
		s.cap0[s.pos[e]] = cap
	}
	s.eCap[e] = cap
	s.needReset = true
}

// Flow returns the units currently pushed through the referenced arc; a
// disabled arc carries none.
func (s *Solver) Flow(e ArcID) int64 {
	if s.dirty {
		panic("mcmf: Flow on a dirty solver; Reset or Solve first")
	}
	if f := s.pos[e]; f >= 0 {
		return s.flow[f]
	}
	return 0
}

// finish compiles the live staged arcs into the flat CSR arrays, reusing
// their storage, and resets the network to its pristine state (template
// capacities, zero flow).
func (s *Solver) finish() {
	s.head = resize(s.head, s.n+1)
	clear(s.head)
	live := 0
	for i, c := range s.eCap {
		if c != 0 {
			s.head[s.eFrom[i]+1]++
			s.head[s.eTo[i]+1]++
			live++
		}
	}
	for u := 0; u < s.n; u++ { // prefix-sum the degrees in place
		s.head[u+1] += s.head[u]
	}
	s.next = resize(s.next, s.n)
	copy(s.next, s.head)
	nArcs := 2 * live
	s.to = resize(s.to, nArcs)
	s.cost = resize(s.cost, nArcs)
	s.cap0 = resize(s.cap0, nArcs)
	s.caps = resize(s.caps, nArcs)
	s.flow = resize(s.flow, nArcs)
	s.rev = resize(s.rev, nArcs)
	s.pos = resize(s.pos, len(s.eFrom))
	for i, c := range s.eCap {
		if c == 0 {
			s.pos[i] = -1
			continue
		}
		u, v := s.eFrom[i], s.eTo[i]
		f := s.next[u]
		s.next[u]++
		r := s.next[v]
		s.next[v]++
		s.to[f] = v
		s.cost[f] = s.eCost[i]
		s.cap0[f] = c
		s.rev[f] = r
		s.to[r] = u
		s.cost[r] = -s.eCost[i]
		s.cap0[r] = 0
		s.rev[r] = f
		s.pos[i] = f
	}
	if len(s.h) != s.n {
		s.h = make([]float64, s.n)
		s.dist = make([]float64, s.n)
		s.prevArc = make([]int32, s.n)
		s.pq.Grow(s.n)
	}
	s.dirty = false
	s.applyTemplates()
}

// resize returns x with length n, keeping its storage when it is large
// enough and growing it geometrically otherwise. The contents are
// unspecified.
func resize[T any](x []T, n int) []T {
	if cap(x) < n {
		return slices.Grow(x[:0], n)[:n]
	}
	return x[:n]
}

// applyTemplates restores working capacities from the templates and clears
// all flow.
func (s *Solver) applyTemplates() {
	copy(s.caps, s.cap0)
	clear(s.flow)
	s.hasFlow = false
	s.needReset = false
}

// Reset returns the network to its pristine state — template capacities,
// zero flow — recompiling the structure first if it changed since the last
// compile. This is the warm-start entry point: Reset + Solve allocates
// nothing unless the staged arc set outgrew the compiled arrays.
func (s *Solver) Reset() {
	if s.dirty {
		s.finish()
		return
	}
	s.applyTemplates()
}

// Solve pushes up to maxFlow units from src to dst along successively
// cheapest augmenting paths and returns the amount shipped and its total
// cost. Pass math.MaxInt64 as maxFlow for min-cost *max*-flow. Negative
// arc costs are supported through an initial Bellman–Ford potential pass;
// when every staged cost is non-negative and the network is flow-free the
// pass is skipped (zero potentials are already valid).
//
// Calling Solve again without Reset continues augmenting on the residual
// network, as the historical solver did. Calling it after UpdateCost or
// SetCap on a network that still carries flow panics — the residual state
// would be inconsistent with the new costs; Reset first.
func (s *Solver) Solve(src, dst int, maxFlow int64) (flow int64, cost float64) {
	if src == dst {
		return 0, 0
	}
	// Checked before any recompile, which would clear the flow silently.
	if s.needReset && s.hasFlow {
		panic("mcmf: Solve after UpdateCost/SetCap on a network with flow; call Reset first")
	}
	if s.dirty {
		s.finish()
	} else if s.needReset {
		s.applyTemplates()
	}

	tPot := time.Now()
	if s.negArcs > 0 || s.hasFlow {
		// Residual graphs carry negated reverse costs even when the
		// forward costs are non-negative, so a continued solve needs real
		// potentials too.
		s.bellmanFord(src)
	} else {
		clear(s.h)
	}
	s.Stages.Add("mcmf.potentials", time.Since(tPot))

	var tDij, tAug time.Duration
	for flow < maxFlow {
		t0 := time.Now()
		s.dijkstra(src, dst)
		tDij += time.Since(t0)
		dd := s.dist[dst]
		if math.IsInf(dd, 1) {
			break // dst no longer reachable
		}
		t0 = time.Now()
		for i, d := range s.dist {
			if s.StopAtSink {
				d = min(d, dd) // an unsettled node rises by dist[sink]
			}
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
			v = int(s.to[s.rev[a]])
		}
		for v := dst; v != src; {
			a := s.prevArc[v]
			s.caps[a] -= push
			s.flow[a] += push
			r := s.rev[a]
			s.caps[r] += push
			s.flow[r] -= push
			cost += float64(push) * s.cost[a]
			v = int(s.to[r])
		}
		flow += push
		s.hasFlow = true
		tAug += time.Since(t0)
	}
	s.Stages.Add("mcmf.dijkstra", tDij)
	s.Stages.Add("mcmf.augment", tAug)
	return flow, cost
}

// dijkstra runs the reduced-cost shortest-path search from src, filling
// dist and prevArc. Under StopAtSink it returns once dst settles.
func (s *Solver) dijkstra(src, dst int) {
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
		if u == dst && s.StopAtSink {
			return
		}
		if math.IsInf(s.h[u], 1) {
			// Loop-invariant for every arc out of u: a node without a
			// finite potential cannot relax anything (checked once per
			// popped node, not once per arc).
			continue
		}
		hu := s.h[u]
		du := s.dist[u]
		for a := s.head[u]; a < s.head[u+1]; a++ {
			if s.caps[a] <= 0 {
				continue
			}
			v := s.to[a]
			// Reduced cost. With valid potentials it is non-negative up
			// to floating-point noise; clamp the noise at zero or
			// Dijkstra can cycle forever on micro-negative edges when
			// raw costs are large (λ-scaled quadratic distances).
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
			for a := s.head[u]; a < s.head[u+1]; a++ {
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
