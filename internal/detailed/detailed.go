// Package detailed implements detailed placement: a legality-preserving
// local refinement pass that runs after legalization, reducing HPWL by
// relocating CLB-class cells (LUT, LUTRAM-as-logic is excluded — it sits on
// its own sites — so: LUT, FF, CARRY) into nearby free slots or swapping
// them with nearby cells. Commercial flows always follow global placement
// and legalization with such a pass; the baselines and DSPlacer's
// incremental loop can both enable it through placer options.
package detailed

import (
	"math/rand"
	"sort"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// Options tunes refinement.
type Options struct {
	// Passes over all movable cells (default 1).
	Passes int
	// WindowCols/WindowRows bound the candidate site window around each
	// cell (defaults 2 columns, 4 rows in each direction).
	WindowCols, WindowRows int
	Seed                   int64
}

func (o Options) withDefaults() Options {
	if o.Passes == 0 {
		o.Passes = 1
	}
	if o.WindowCols == 0 {
		o.WindowCols = 2
	}
	if o.WindowRows == 0 {
		o.WindowRows = 4
	}
	return o
}

// movable reports whether detailed placement may touch cells of type t.
// DSPs and BRAMs stay where legalization put them (DSP positions are the
// paper's result; moving them here would undo it).
func movable(t netlist.CellType) bool {
	switch t {
	case netlist.LUT, netlist.FF, netlist.Carry, netlist.LUTRAM:
		return true
	}
	return false
}

// Refine improves pos in place and returns the total HPWL gain (positive =
// improvement). Capacity legality on CLB sites is preserved exactly.
//
// Each cell is visited once per pass. Its nets' boxes without the cell are
// built once per visit, so a free-slot candidate costs one Expand per net
// and a swap candidate adds one box per net of the partner's that the cell
// does not share. The arithmetic and its order are those of summing every
// touched net's weighted HPWL before and after the move (DESIGN.md §17).
func Refine(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, opt Options) float64 {
	opt = opt.withDefaults()

	// CLB site geometry. Column x increases strictly (fpga.Device.Validate).
	cols := dev.ColumnsOf(fpga.CLB)
	if len(cols) == 0 {
		return 0
	}
	colX := make([]float64, len(cols))
	for k, ci := range cols {
		colX[k] = dev.Columns[ci].X
	}
	pitch := dev.Columns[cols[0]].YPitch
	numRows := dev.Columns[cols[0]].NumSites
	capacity := dev.Columns[cols[0]].Capacity

	// Occupancy: the cells on site col*numRows+row, in arrival order (the
	// swap partner is a site's first resident), and each cell's site.
	occ := make([][]int32, len(cols)*numRows)
	colOf := make([]int, nl.NumCells())
	rowOf := make([]int, nl.NumCells())
	var ids []int
	for i, c := range nl.Cells {
		if c.Fixed || !movable(c.Type) {
			continue
		}
		k := sort.SearchFloat64s(colX, pos[i].X)
		if k == len(colX) || colX[k] != pos[i].X {
			continue // not on a CLB site (unplaced or other resource)
		}
		row := int(pos[i].Y/pitch + 0.5)
		if row < 0 || row >= numRows {
			continue
		}
		occ[k*numRows+row] = append(occ[k*numRows+row], int32(i))
		colOf[i], rowOf[i] = k, row
		ids = append(ids, i)
	}
	if len(ids) == 0 {
		return 0
	}

	nets := netsByCell(nl)
	// Per-visit state, one entry per net of the visited cell: its box
	// without the cell, its weight and its current weighted HPWL.
	var rest []geom.Rect
	var w, cur []float64
	// Net marks: onC stamps the visited cell's nets, onO a swap partner's.
	onC := newStamps(len(nl.Nets))
	onO := newStamps(len(nl.Nets))
	boxWithout := func(n *netlist.Net, skip int) geom.Rect {
		r := geom.EmptyRect()
		if n.Driver != skip {
			r = r.Expand(pos[n.Driver])
		}
		for _, s := range n.Sinks {
			if s != skip {
				r = r.Expand(pos[s])
			}
		}
		return r
	}

	rng := rand.New(rand.NewSource(opt.Seed + 3))
	gain := 0.0
	for pass := 0; pass < opt.Passes; pass++ {
		order := rng.Perm(len(ids))
		for _, oi := range order {
			c := ids[oi]
			curK, curRow := colOf[c], rowOf[c]
			curSite := curK*numRows + curRow

			cNets := nets[c]
			rest, w, cur = rest[:0], w[:0], cur[:0]
			cMark := onC.next()
			before := 0.0 // the cell's nets now: the same for every candidate
			for _, ni := range cNets {
				n := nl.Nets[ni]
				onC.mark[ni] = cMark
				r := boxWithout(n, c)
				v := r.Expand(pos[c]).HalfPerimeter() * n.Weight
				rest, w, cur = append(rest, r), append(w, n.Weight), append(cur, v)
				before += v
			}

			bestDelta := -1e-9 // only strictly improving moves
			bestK, bestRow := -1, -1
			bestSwap := -1
			for dk := -opt.WindowCols; dk <= opt.WindowCols; dk++ {
				tk := curK + dk
				if tk < 0 || tk >= len(cols) {
					continue
				}
				for dr := -opt.WindowRows; dr <= opt.WindowRows; dr++ {
					tr := curRow + dr
					if tr < 0 || tr >= numRows {
						continue
					}
					if tk == curK && tr == curRow {
						continue
					}
					tgtPos := geom.Point{X: colX[tk], Y: float64(tr) * pitch}
					if residents := occ[tk*numRows+tr]; len(residents) < capacity {
						// Free-slot move.
						after := 0.0
						for k := range rest {
							after += rest[k].Expand(tgtPos).HalfPerimeter() * w[k]
						}
						if delta := after - before; delta < bestDelta {
							bestDelta = delta
							bestK, bestRow = tk, tr
							bestSwap = -1
						}
					} else {
						// Swap with the first resident (cheap heuristic).
						o := int(residents[0])
						oNets := nets[o]
						oMark := onO.next()
						for _, ni := range oNets {
							onO.mark[ni] = oMark
						}
						pc, po := pos[c], pos[o]
						swapBefore, after := before, 0.0
						for k, ni := range cNets {
							if onO.mark[ni] == oMark {
								// A shared net keeps its set of pin positions.
								after += cur[k]
							} else {
								after += rest[k].Expand(po).HalfPerimeter() * w[k]
							}
						}
						for _, ni := range oNets {
							if onC.mark[ni] == cMark {
								continue
							}
							n := nl.Nets[ni]
							r := boxWithout(n, o)
							swapBefore += r.Expand(po).HalfPerimeter() * n.Weight
							after += r.Expand(pc).HalfPerimeter() * n.Weight
						}
						if delta := after - swapBefore; delta < bestDelta {
							bestDelta = delta
							bestK, bestRow = tk, tr
							bestSwap = o
						}
					}
				}
			}
			if bestK < 0 {
				continue
			}
			bestSite := bestK*numRows + bestRow
			if bestSwap < 0 {
				pos[c] = geom.Point{X: colX[bestK], Y: float64(bestRow) * pitch}
				occ[curSite] = remove(occ[curSite], c)
				occ[bestSite] = append(occ[bestSite], int32(c))
				colOf[c], rowOf[c] = bestK, bestRow
			} else {
				o := bestSwap
				pos[c], pos[o] = pos[o], pos[c]
				occ[curSite] = remove(occ[curSite], c)
				occ[bestSite] = remove(occ[bestSite], o)
				occ[curSite] = append(occ[curSite], int32(o))
				occ[bestSite] = append(occ[bestSite], int32(c))
				colOf[c], rowOf[c], colOf[o], rowOf[o] = colOf[o], rowOf[o], colOf[c], rowOf[c]
			}
			gain += -bestDelta
		}
	}
	return gain
}

// remove deletes v from s by moving the last element into its slot.
func remove(s []int32, v int) []int32 {
	for i, x := range s {
		if int(x) == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// netsByCell lists each cell's distinct nets in ascending net index.
func netsByCell(nl *netlist.Netlist) [][]int32 {
	nets := make([][]int32, nl.NumCells())
	for ni, n := range nl.Nets {
		add := func(c int) {
			if l := nets[c]; len(l) == 0 || l[len(l)-1] != int32(ni) {
				nets[c] = append(l, int32(ni))
			}
		}
		add(n.Driver)
		for _, s := range n.Sinks {
			add(s)
		}
	}
	return nets
}

// stamps marks members of a set that is rebuilt often: next starts an
// empty set, and i is in it while mark[i] equals the returned stamp.
type stamps struct {
	mark  []uint32
	epoch uint32
}

func newStamps(n int) *stamps { return &stamps{mark: make([]uint32, n)} }

func (s *stamps) next() uint32 {
	s.epoch++
	if s.epoch == 0 { // wrapped: forget every old stamp
		clear(s.mark)
		s.epoch = 1
	}
	return s.epoch
}
