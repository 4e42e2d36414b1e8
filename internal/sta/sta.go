// Package sta is a static timing analyzer over placed-and-routed netlists.
// Sequential elements (FF, LUTRAM, BRAM, DSP, IO, PS ports) launch and
// capture paths; LUTs and carry cells are combinational. Net delays follow
// a linear Manhattan-distance model scaled by routing congestion, so the
// WNS/TNS numbers of Table II respond to placement quality exactly the way
// the paper's post-route timing does: compact datapaths and short PS↔PL
// buses shorten the worst register-to-register paths.
package sta

import (
	"fmt"
	"math"

	"dsplacer/internal/geom"
	"dsplacer/internal/graph"
	"dsplacer/internal/netlist"
)

// DelayModel holds the timing constants in nanoseconds.
type DelayModel struct {
	// Clk2Q is the clock-to-output delay of sequential cells by type.
	Clk2Q map[netlist.CellType]float64
	// CombDelay is the propagation delay of combinational cells.
	CombDelay map[netlist.CellType]float64
	// Setup is the capture-flop setup time.
	Setup float64
	// WireBase is the fixed net delay; WirePerUnit scales with Manhattan
	// distance in fabric units.
	WireBase, WirePerUnit float64
}

// DefaultModel returns constants loosely calibrated to UltraScale+ speed
// grade -2 characteristics.
func DefaultModel() DelayModel {
	return DelayModel{
		Clk2Q: map[netlist.CellType]float64{
			netlist.FF:     0.16,
			netlist.LUTRAM: 0.40,
			netlist.BRAM:   0.96,
			netlist.DSP:    0.88,
			netlist.IO:     0.00,
			netlist.PSPort: 0.64,
		},
		CombDelay: map[netlist.CellType]float64{
			netlist.LUT:   0.24,
			netlist.Carry: 0.10,
		},
		Setup:       0.08,
		WireBase:    0.08,
		WirePerUnit: 0.021,
	}
}

// Sequential reports whether cells of type t launch/capture paths.
func (m DelayModel) Sequential(t netlist.CellType) bool {
	_, ok := m.Clk2Q[t]
	return ok
}

// Options configures an analysis run.
type Options struct {
	// ClockPeriodNs is the target period (1000/freqMHz).
	ClockPeriodNs float64
	// Model defaults to DefaultModel when zero.
	Model *DelayModel
	// Congestion optionally scales each net's wire delay by
	// max(1, Congestion[net]) — feed route.Result.NetCongestion here for
	// post-route timing.
	Congestion []float64
}

// Endpoint is one captured timing path end.
type Endpoint struct {
	Cell  int
	Slack float64
}

// Result carries the timing report.
type Result struct {
	WNS float64 // worst negative slack (positive = met)
	TNS float64 // total negative slack (sum of negative endpoint slacks)
	// Endpoints lists the slack of every capture point.
	Endpoints []Endpoint
	// WorstPath is the cell chain of the critical path, launch to capture.
	WorstPath []int
	// EdgeSlack returns per-net criticality information via NetCriticality.
	arrOut       []float64
	minSlack     []float64 // per cell: worst slack of any path through its output edge
	period       float64
	pred         []int // worst-arrival predecessor per combinational cell
	endpointPred []int // worst launch-side predecessor per cell; -1 if not an endpoint
}

// Analyze runs STA. pos must hold the placed location of every cell.
func Analyze(nl *netlist.Netlist, pos []geom.Point, opt Options) (*Result, error) {
	if opt.ClockPeriodNs <= 0 {
		return nil, fmt.Errorf("sta: clock period must be positive")
	}
	model := DefaultModel()
	if opt.Model != nil {
		model = *opt.Model
	}
	n := nl.NumCells()
	if len(pos) != n {
		return nil, fmt.Errorf("sta: %d positions for %d cells", len(pos), n)
	}

	// Edge list with wire delays; combinational subgraph for ordering.
	type edge struct {
		from, to int
		delay    float64
	}
	var edges []edge
	comb := graph.NewDigraph(n)
	for ni, net := range nl.Nets {
		cong := 1.0
		if opt.Congestion != nil && opt.Congestion[ni] > 1 {
			cong = opt.Congestion[ni]
		}
		for _, s := range net.Sinks {
			if s == net.Driver {
				continue
			}
			d := model.WireBase + model.WirePerUnit*pos[net.Driver].Manhattan(pos[s])*cong
			edges = append(edges, edge{from: net.Driver, to: s, delay: d})
			if !model.Sequential(nl.Cells[net.Driver].Type) || !model.Sequential(nl.Cells[s].Type) {
				// Ordering only matters through combinational cells.
				if !model.Sequential(nl.Cells[s].Type) {
					comb.AddEdge(net.Driver, s)
				}
			}
		}
	}
	order, ok := comb.TopoSort()
	if !ok {
		return nil, fmt.Errorf("sta: combinational cycle detected (feedback must pass through a register)")
	}

	// arrOut[c]: time the signal leaves cell c's output pin.
	arrOut := make([]float64, n)
	pred := make([]int, n) // worst-arrival predecessor of combinational cells
	for i := range pred {
		pred[i] = -1
	}
	for i, c := range nl.Cells {
		if model.Sequential(c.Type) {
			arrOut[i] = model.Clk2Q[c.Type]
		} else {
			arrOut[i] = math.Inf(-1) // no fanin yet
		}
	}
	// Incoming-edge buckets for combinational propagation in topo order.
	inEdges := make([][]edge, n)
	for _, e := range edges {
		if !model.Sequential(nl.Cells[e.to].Type) {
			inEdges[e.to] = append(inEdges[e.to], e)
		}
	}
	for _, v := range order {
		c := nl.Cells[v]
		if model.Sequential(c.Type) {
			continue
		}
		worst := math.Inf(-1)
		for _, e := range inEdges[v] {
			if arrOut[e.from] == math.Inf(-1) {
				continue // dangling combinational input
			}
			if t := arrOut[e.from] + e.delay; t > worst {
				worst = t
				pred[v] = e.from
			}
		}
		if worst == math.Inf(-1) {
			// Undriven combinational cell: treat as arriving at t=0.
			worst = 0
		}
		arrOut[v] = worst + model.CombDelay[c.Type]
	}

	// Endpoint slacks at sequential inputs.
	res := &Result{arrOut: arrOut, period: opt.ClockPeriodNs,
		minSlack: make([]float64, n)}
	for i := range res.minSlack {
		res.minSlack[i] = math.Inf(1)
	}
	// Per-cell endpoint slack and launch predecessor; endpointPred[c] < 0
	// marks a cell that captures no timed path.
	endpointSlack := make([]float64, n)
	endpointPred := make([]int, n)
	for i := range endpointPred {
		endpointPred[i] = -1
	}
	for _, e := range edges {
		if !model.Sequential(nl.Cells[e.to].Type) {
			continue
		}
		if arrOut[e.from] == math.Inf(-1) {
			continue
		}
		arrive := arrOut[e.from] + e.delay + model.Setup
		slack := opt.ClockPeriodNs - arrive
		if endpointPred[e.to] < 0 || slack < endpointSlack[e.to] {
			endpointSlack[e.to] = slack
			endpointPred[e.to] = e.from
		}
		if slack < res.minSlack[e.from] {
			res.minSlack[e.from] = slack
		}
	}
	// Propagate criticality back through combinational predecessors so
	// NetCriticality sees interior path nets too.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if pred[v] >= 0 && res.minSlack[v] < res.minSlack[pred[v]] {
			res.minSlack[pred[v]] = res.minSlack[v]
		}
	}

	res.pred = pred
	res.endpointPred = endpointPred
	res.WNS = math.Inf(1)
	worstEnd := -1
	// Walk endpoints in cell order, so the TNS sum, the Endpoints order and
	// the WNS tie-break (lowest cell id) are the same on every run.
	for c, s := range endpointSlack {
		if endpointPred[c] < 0 {
			continue
		}
		res.Endpoints = append(res.Endpoints, Endpoint{Cell: c, Slack: s})
		if s < res.WNS {
			res.WNS = s
			worstEnd = c
		}
		if s < 0 {
			res.TNS += s
		}
	}
	if worstEnd < 0 {
		// No timing paths at all.
		res.WNS = opt.ClockPeriodNs
		return res, nil
	}
	res.WorstPath = res.pathTo(worstEnd)
	return res, nil
}

// NetCriticality returns a per-net weight multiplier in [1, 1+boost] for
// timing-driven placement: nets on near-critical paths get larger weights.
func NetCriticality(nl *netlist.Netlist, res *Result, boost float64) []float64 {
	out := make([]float64, len(nl.Nets))
	for ni, net := range nl.Nets {
		s := res.minSlack[net.Driver]
		crit := 0.0
		if !math.IsInf(s, 1) {
			crit = 1 - s/res.period
			crit = geom.Clamp(crit, 0, 1)
		}
		out[ni] = 1 + boost*crit*crit
	}
	return out
}
