package placer

import (
	"fmt"
	"math"
	"sort"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/legalize"
	"dsplacer/internal/netlist"
)

// legalizeAll snaps every movable cell onto a legal site of its resource
// type and returns the DSP site assignment. CLB-class cells (LUT, LUTRAM,
// FF, CARRY) share CLB sites with per-site capacity; BRAMs take BRAM sites;
// DSPs follow the mode-specific policy.
func legalizeAll(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, opt Options) (map[int]int, error) {
	siteOfDSP, err := legalizeDSPs(dev, nl, pos, opt)
	if err != nil {
		return nil, err
	}
	sites := dev.DSPSites()
	for c, j := range siteOfDSP {
		pos[c] = dev.Loc(sites[j])
	}
	if err := tetris(dev, nl, pos, fpga.CLB, clbClass); err != nil {
		return nil, err
	}
	if err := tetris(dev, nl, pos, fpga.BRAMRes, func(t netlist.CellType) bool { return t == netlist.BRAM }); err != nil {
		return nil, err
	}
	return siteOfDSP, nil
}

func clbClass(t netlist.CellType) bool {
	switch t {
	case netlist.LUT, netlist.LUTRAM, netlist.FF, netlist.Carry:
		return true
	}
	return false
}

// tetris assigns every movable cell of the class to the nearest site of the
// resource with remaining capacity, processing cells in x order (the
// classic Tetris legalizer sweep).
func tetris(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, res fpga.Resource, class func(netlist.CellType) bool) error {
	cols := dev.ColumnsOf(res)
	if len(cols) == 0 {
		return fmt.Errorf("placer: no %v columns on device", res)
	}
	type colState struct {
		x      float64
		pitch  float64
		remain []int // remaining capacity per row
	}
	states := make([]*colState, len(cols))
	for k, ci := range cols {
		c := &dev.Columns[ci]
		st := &colState{x: c.X, pitch: c.YPitch, remain: make([]int, c.NumSites)}
		for r := range st.remain {
			st.remain[r] = c.Capacity
		}
		states[k] = st
	}

	var ids []int
	for i, c := range nl.Cells {
		if !c.Fixed && class(c.Type) {
			ids = append(ids, i)
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if pos[ids[a]].X != pos[ids[b]].X {
			return pos[ids[a]].X < pos[ids[b]].X
		}
		return ids[a] < ids[b]
	})

	for _, id := range ids {
		p := pos[id]
		bestCost := 1e18
		bestCol, bestRow := -1, -1
		try := func(k int) {
			st := states[k]
			dx := abs(st.x - p.X)
			want := int(p.Y / st.pitch)
			if r := nearestFreeRow(st.remain, want); r >= 0 {
				dy := abs(float64(r)*st.pitch - p.Y)
				if dx+dy < bestCost {
					bestCost = dx + dy
					bestCol, bestRow = k, r
				}
			}
		}
		// Visit columns in (|Δx|, index) order, stopping once |Δx| alone
		// reaches the best cost: walk outward from p.X. Column x increases
		// strictly (fpga.Device.Validate), so |Δx| never decreases along
		// either side, and the columns at one distance form a run on each
		// side; the left run has the lower indices and goes first.
		j := sort.Search(len(states), func(k int) bool { return states[k].x >= p.X })
		l, r := j-1, j
		for l >= 0 || r < len(states) {
			d := math.Inf(1)
			if l >= 0 {
				d = abs(states[l].x - p.X)
			}
			if r < len(states) {
				d = math.Min(d, abs(states[r].x-p.X))
			}
			if !(d < bestCost) { // also stops on a NaN position
				break
			}
			lo, hi := l, r
			for lo >= 0 && abs(states[lo].x-p.X) == d {
				lo--
			}
			for hi < len(states) && abs(states[hi].x-p.X) == d {
				hi++
			}
			for k := lo + 1; k <= l; k++ {
				try(k)
			}
			for k := r; k < hi; k++ {
				try(k)
			}
			l, r = lo, hi
		}
		if bestCol < 0 {
			return fmt.Errorf("placer: out of %v capacity while legalizing cell %d", res, id)
		}
		st := states[bestCol]
		st.remain[bestRow]--
		pos[id] = geom.Point{X: st.x, Y: float64(bestRow) * st.pitch}
	}
	return nil
}

// nearestFreeRow searches outward from want for a row with remaining
// capacity; returns -1 when the column is full.
func nearestFreeRow(remain []int, want int) int {
	n := len(remain)
	if want < 0 {
		want = 0
	}
	if want >= n {
		want = n - 1
	}
	for d := 0; d < n; d++ {
		if r := want - d; r >= 0 && remain[r] > 0 {
			return r
		}
		if r := want + d; r < n && remain[r] > 0 {
			return r
		}
	}
	return -1
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// legalizeDSPs produces the mode-specific legal DSP site assignment.
func legalizeDSPs(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, opt Options) (map[int]int, error) {
	dsps := nl.CellsOfType(netlist.DSP)
	if len(dsps) == 0 {
		return map[int]int{}, nil
	}
	switch opt.Mode {
	case ModeVivado:
		// Snap to nearest sites, then repair with the displacement-
		// minimizing cascade legalizer.
		initial := nearestSiteAssignment(dev, dsps, pos)
		return legalize.Legalize(dev, nl, initial, legalize.Options{})
	case ModeAMF:
		return amfPack(dev, nl, dsps, pos)
	case ModeDSPlacer:
		// Datapath DSP sites are pinned; remaining (control) DSPs go to the
		// free sites nearest their analytical positions.
		return dsplacerFill(dev, nl, dsps, pos, opt.FixedSites)
	}
	return nil, fmt.Errorf("placer: unknown mode %v", opt.Mode)
}

// nearestSiteAssignment maps each DSP to its closest DSP site (collisions
// allowed; the legalizer resolves them).
func nearestSiteAssignment(dev *fpga.Device, dsps []int, pos []geom.Point) map[int]int {
	sites := dev.DSPSites()
	out := make(map[int]int, len(dsps))
	for _, c := range dsps {
		best, bestD := 0, 1e18
		for j, s := range sites {
			d := dev.Loc(s).Manhattan(pos[c])
			if d < bestD {
				bestD = d
				best = j
			}
		}
		out[c] = best
	}
	return out
}

// amfPack reproduces AMF-Placer's macro-first compact packing: cascade
// macros (largest first), then singles, are packed bottom-up into DSP
// columns starting from the column nearest the design centroid. The layout
// is compact but ignores each DSP's analytical position and any PS↔PL
// datapath structure — the weakness Fig. 9(b) shows.
func amfPack(dev *fpga.Device, nl *netlist.Netlist, dsps []int, pos []geom.Point) (map[int]int, error) {
	sites := dev.DSPSites()
	cols := dev.ColumnsOf(fpga.DSPRes)
	siteIdx := make(map[[2]int]int, len(sites))
	for j, s := range sites {
		siteIdx[[2]int{s.Col, s.Row}] = j
	}
	// Groups: macros then singles.
	var groups [][]int
	seen := make(map[int]bool)
	for _, c := range dsps {
		cell := nl.Cells[c]
		if cell.Macro == netlist.NoMacro {
			groups = append(groups, []int{c})
			continue
		}
		if !seen[cell.Macro] {
			seen[cell.Macro] = true
			groups = append(groups, nl.Macros[cell.Macro])
		}
	}
	sort.SliceStable(groups, func(a, b int) bool {
		if len(groups[a]) != len(groups[b]) {
			return len(groups[a]) > len(groups[b])
		}
		return groups[a][0] < groups[b][0]
	})
	// Column order: distance from the centroid of the DSPs' analytical
	// positions.
	var centroid geom.Point
	for _, c := range dsps {
		centroid = centroid.Add(pos[c])
	}
	centroid = centroid.Scale(1 / float64(len(dsps)))
	order := make([]int, len(cols))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		da := abs(dev.Columns[cols[order[a]]].X - centroid.X)
		db := abs(dev.Columns[cols[order[b]]].X - centroid.X)
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	occ := make([][]bool, len(cols))
	for k, ci := range cols {
		occ[k] = make([]bool, dev.Columns[ci].NumSites)
	}
	out := make(map[int]int, len(dsps))
	for _, g := range groups {
		placed := false
		for _, k := range order {
			ci := cols[k]
			col := &dev.Columns[ci]
			wantRow := int(centroid.Y / col.YPitch)
			row := bestFreeRun(occ[k], len(g), wantRow)
			if row < 0 {
				continue
			}
			for m, cell := range g {
				out[cell] = siteIdx[[2]int{ci, row + m}]
				occ[k][row+m] = true
			}
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("placer: AMF packing out of DSP capacity")
		}
	}
	return out, nil
}

// bestFreeRun finds the start row of a free run of length need whose center
// is closest to wantRow; -1 when none exists.
func bestFreeRun(occ []bool, need, wantRow int) int {
	best, bestD := -1, 1<<30
	run := 0
	for r := 0; r < len(occ); r++ {
		if occ[r] {
			run = 0
			continue
		}
		run++
		if run >= need {
			start := r - need + 1
			center := start + need/2
			d := center - wantRow
			if d < 0 {
				d = -d
			}
			if d < bestD {
				bestD = d
				best = start
			}
		}
	}
	return best
}

// dsplacerFill pins the datapath DSPs at their assigned sites and fills the
// remaining DSPs (control path, handled by the standard tool per §III-B)
// onto the nearest free sites, respecting any control-path macros greedily.
func dsplacerFill(dev *fpga.Device, nl *netlist.Netlist, dsps []int, pos []geom.Point, fixed map[int]int) (map[int]int, error) {
	sites := dev.DSPSites()
	occupied := make([]bool, len(sites))
	out := make(map[int]int, len(dsps))
	for c, j := range fixed {
		if occupied[j] {
			return nil, fmt.Errorf("placer: fixed DSP site %d double-booked", j)
		}
		occupied[j] = true
		out[c] = j
	}
	cols := dev.ColumnsOf(fpga.DSPRes)
	colStart := make(map[int]int) // device column index → first site index
	for j, s := range sites {
		if _, ok := colStart[s.Col]; !ok {
			colStart[s.Col] = j
		}
	}
	// Remaining groups (macros whole, singles alone), nearest-first.
	var rest []int
	for _, c := range dsps {
		if _, ok := out[c]; !ok {
			rest = append(rest, c)
		}
	}
	seen := make(map[int]bool)
	var groups [][]int
	for _, c := range rest {
		cell := nl.Cells[c]
		if cell.Macro == netlist.NoMacro {
			groups = append(groups, []int{c})
		} else if !seen[cell.Macro] {
			seen[cell.Macro] = true
			groups = append(groups, nl.Macros[cell.Macro])
		}
	}
	for _, g := range groups {
		// Desired position: centroid of the group's analytical positions.
		var want geom.Point
		for _, c := range g {
			want = want.Add(pos[c])
		}
		want = want.Scale(1 / float64(len(g)))
		bestCost := 1e18
		bestStart := -1
		for _, ci := range cols {
			col := &dev.Columns[ci]
			base := colStart[ci]
			run := 0
			for r := 0; r < col.NumSites; r++ {
				if occupied[base+r] {
					run = 0
					continue
				}
				run++
				if run >= len(g) {
					start := base + r - len(g) + 1
					head := dev.Loc(sites[start])
					cost := head.Manhattan(want)
					if cost < bestCost {
						bestCost = cost
						bestStart = start
					}
				}
			}
		}
		if bestStart < 0 {
			return nil, fmt.Errorf("placer: no free cascade run of %d sites", len(g))
		}
		for m, c := range g {
			out[c] = bestStart + m
			occupied[bestStart+m] = true
		}
	}
	return out, nil
}
