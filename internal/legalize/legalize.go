// Package legalize enforces the cascade constraints on a DSP assignment
// (§IV-B): inter-column legalization moves each cascade macro (and each
// single DSP) to one column, minimizing horizontal displacement under
// column-capacity constraints (Eq. 10); intra-column legalization then
// assigns rows within each column, keeping cascaded cells on consecutive
// sites while minimizing vertical displacement (Eq. 11). Eq. 10 is solved
// by its min-cost-flow (transportation) relaxation, rounded to each group's
// majority column with capacity repair; Eq. 11 is solved exactly by an
// Abacus-style weighted-median clumping algorithm.
package legalize

import (
	"fmt"
	"math"
	"sort"

	"dsplacer/internal/fpga"
	"dsplacer/internal/mcmf"
	"dsplacer/internal/netlist"
	"dsplacer/internal/par"
)

// Options has no fields: the legalizer has one inter-column method and no
// settings. The type stays because the benchmark module's traced runner, a
// separate Go module, passes Options{} to Legalize.
type Options struct{}

// group is one legalization unit: a whole cascade macro or a single DSP.
type group struct {
	cells []int // cell ids in cascade order (len 1 for singles)
	// desiredX is the current column x; desiredRows are per-cell fractional
	// row positions in device row units.
	desiredX    float64
	desiredRows []float64
}

func (g *group) size() int { return len(g.cells) }

// Legalize repairs siteOf so that every listed DSP occupies a distinct DSP
// site and every cascade macro occupies consecutive rows of one column.
// Cells absent from siteOf are ignored (they belong to other placement
// passes). The input map is not mutated.
func Legalize(dev *fpga.Device, nl *netlist.Netlist, siteOf map[int]int, _ Options) (map[int]int, error) {
	sites := dev.DSPSites()
	for c, j := range siteOf {
		if j < 0 || j >= len(sites) {
			return nil, fmt.Errorf("legalize: cell %d has invalid site %d", c, j)
		}
	}
	groups, err := buildGroups(dev, nl, siteOf)
	if err != nil {
		return nil, err
	}
	cols := dev.ColumnsOf(fpga.DSPRes)
	if len(cols) == 0 {
		return nil, fmt.Errorf("legalize: device has no DSP columns")
	}
	colX := make([]float64, len(cols))
	colCap := make([]int, len(cols))
	for i, ci := range cols {
		colX[i] = dev.Columns[ci].X
		colCap[i] = dev.Columns[ci].NumSites
	}

	assign, err := interColumn(groups, colX, colCap)
	if err != nil {
		return nil, err
	}

	// Index site lookup: (device column index, row) → global site index.
	siteIdx := make(map[[2]int]int, len(sites))
	for j, s := range sites {
		siteIdx[[2]int{s.Col, s.Row}] = j
	}

	colGroups := make([][]*group, len(cols))
	for gi, g := range groups {
		colGroups[assign[gi]] = append(colGroups[assign[gi]], g)
	}
	// Intra-column legalization runs per column, in parallel (§IV-B).
	type colRows struct {
		rows []int
		err  error
	}
	res := par.Map(len(cols), func(k int) colRows {
		rows, err := intraColumn(colGroups[k], colCap[k])
		return colRows{rows, err}
	})
	out := make(map[int]int, len(siteOf))
	for k, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		for gi, g := range colGroups[k] {
			for m, cell := range g.cells {
				j, ok := siteIdx[[2]int{cols[k], r.rows[gi] + m}]
				if !ok {
					return nil, fmt.Errorf("legalize: no site at col %d row %d", cols[k], r.rows[gi]+m)
				}
				out[cell] = j
			}
		}
	}
	return out, nil
}

// buildGroups partitions the assigned DSP cells into macros and singles and
// records their desired (current) positions.
func buildGroups(dev *fpga.Device, nl *netlist.Netlist, siteOf map[int]int) ([]*group, error) {
	sites := dev.DSPSites()
	var groups []*group
	seenMacro := make(map[int]bool)
	// Deterministic iteration: ascending cell id.
	ids := make([]int, 0, len(siteOf))
	for c := range siteOf {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	for _, c := range ids {
		cell := nl.Cells[c]
		if cell.Type != netlist.DSP {
			return nil, fmt.Errorf("legalize: cell %d (%v) is not a DSP", c, cell.Type)
		}
		if cell.Macro == netlist.NoMacro {
			s := sites[siteOf[c]]
			groups = append(groups, &group{
				cells:       []int{c},
				desiredX:    dev.Columns[s.Col].X,
				desiredRows: []float64{float64(s.Row)},
			})
			continue
		}
		if seenMacro[cell.Macro] {
			continue
		}
		seenMacro[cell.Macro] = true
		members := nl.Macros[cell.Macro]
		g := &group{cells: members}
		sumX := 0.0
		for _, m := range members {
			j, ok := siteOf[m]
			if !ok {
				return nil, fmt.Errorf("legalize: macro %d member %d missing from assignment", cell.Macro, m)
			}
			s := sites[j]
			sumX += dev.Columns[s.Col].X
			g.desiredRows = append(g.desiredRows, float64(s.Row))
		}
		g.desiredX = sumX / float64(len(members))
		groups = append(groups, g)
	}
	return groups, nil
}

// interColumn assigns each group to one column (Eq. 10). Returns the column
// index (into colX) per group.
func interColumn(groups []*group, colX []float64, colCap []int) ([]int, error) {
	total := 0
	for _, g := range groups {
		total += g.size()
	}
	capSum := 0
	for _, c := range colCap {
		capSum += c
	}
	if total > capSum {
		return nil, fmt.Errorf("legalize: %d DSPs exceed %d column capacity", total, capSum)
	}
	if len(groups) == 0 {
		return nil, nil
	}
	return interColumnFlow(groups, colX, colCap)
}

// dcost is D_col(i,j): horizontal displacement of group i moving to column
// j, weighted by group size (every member moves together).
func dcost(g *group, x float64) float64 {
	return float64(g.size()) * math.Abs(g.desiredX-x)
}

// interColumnFlow solves the LP relaxation of Eq. 10 as a transportation
// min-cost flow (groups may split across columns), then rounds each group
// to its majority column and repairs capacity overflow by re-homing the
// cheapest-to-move groups.
func interColumnFlow(groups []*group, colX []float64, colCap []int) ([]int, error) {
	out, err := majorityFlow(groups, colX, colCap)
	if err != nil {
		return nil, err
	}
	if err := repairOverflow(groups, colX, colCap, out); err != nil {
		return nil, err
	}
	return out, nil
}

// majorityFlow solves the transportation relaxation and puts each group in
// the column that carries most of its flow; columns may then overflow.
func majorityFlow(groups []*group, colX []float64, colCap []int) ([]int, error) {
	nG, nC := len(groups), len(colX)
	// Nodes: 0 source, 1..nG groups, nG+1..nG+nC columns, sink.
	g := mcmf.NewSolver(nG + nC + 2)
	src, sink := 0, nG+nC+1
	type ref struct {
		r    mcmf.ArcID
		i, j int
	}
	var refs []ref
	for i, gr := range groups {
		g.AddEdge(src, 1+i, int64(gr.size()), 0)
		for j := 0; j < nC; j++ {
			// Cost per unit: |Δx| (size multiplies naturally with flow units).
			r := g.AddEdge(1+i, 1+nG+j, int64(gr.size()), math.Abs(gr.desiredX-colX[j]))
			refs = append(refs, ref{r: r, i: i, j: j})
		}
	}
	for j := 0; j < nC; j++ {
		g.AddEdge(1+nG+j, sink, int64(colCap[j]), 0)
	}
	want := int64(0)
	for _, gr := range groups {
		want += int64(gr.size())
	}
	flow, _ := g.Solve(src, sink, want)
	if flow < want {
		return nil, fmt.Errorf("legalize: flow %d < demand %d", flow, want)
	}
	// Majority rounding.
	out := make([]int, nG)
	bestFlow := make([]int64, nG)
	for i := range out {
		out[i] = -1
		bestFlow[i] = -1
	}
	for _, rf := range refs {
		if f := g.Flow(rf.r); f > bestFlow[rf.i] {
			bestFlow[rf.i] = f
			out[rf.i] = rf.j
		}
	}
	return out, nil
}

// repairOverflow greedily moves groups out of over-full columns into
// columns with room, smallest-extra-cost move first, updating out.
func repairOverflow(groups []*group, colX []float64, colCap []int, out []int) error {
	nC := len(colX)
	load := make([]int, nC)
	for i, gr := range groups {
		load[out[i]] += gr.size()
	}
	for {
		over := -1
		for j := 0; j < nC; j++ {
			if load[j] > colCap[j] {
				over = j
				break
			}
		}
		if over < 0 {
			break
		}
		// Candidate moves from the overfull column.
		bestI, bestJ := -1, -1
		bestExtra := math.Inf(1)
		for i, gr := range groups {
			if out[i] != over {
				continue
			}
			for j := 0; j < nC; j++ {
				if j == over || load[j]+gr.size() > colCap[j] {
					continue
				}
				extra := dcost(gr, colX[j]) - dcost(gr, colX[over])
				if extra < bestExtra {
					bestExtra = extra
					bestI, bestJ = i, j
				}
			}
		}
		if bestI < 0 {
			return fmt.Errorf("legalize: cannot repair column overflow (column %d)", over)
		}
		load[over] -= groups[bestI].size()
		load[bestJ] += groups[bestI].size()
		out[bestI] = bestJ
	}
	return nil
}
