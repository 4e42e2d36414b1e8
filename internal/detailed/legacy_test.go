package detailed_test

// This file carries a verbatim copy of the map-based Refine that the flat
// rewrite replaced, as an executable reference. The equivalence tests run
// both on the same inputs and demand bit-identical positions and gains:
// the rewrite promises the same candidates, the same float arithmetic in
// the same order, and the same tie-breaks.

import (
	"math"
	"math/rand"
	"testing"

	"dsplacer/internal/detailed"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
)

func legacyDefaults(o detailed.Options) detailed.Options {
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

// legacyMovable reports whether detailed placement may touch cells of type t.
// DSPs and BRAMs stay where legalization put them (DSP positions are the
// paper's result; moving them here would undo it).
func legacyMovable(t netlist.CellType) bool {
	switch t {
	case netlist.LUT, netlist.FF, netlist.Carry, netlist.LUTRAM:
		return true
	}
	return false
}

// legacyRefine improves pos in place and returns the total HPWL gain (positive =
// improvement). Capacity legality on CLB sites is preserved exactly.
func legacyRefine(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, opt detailed.Options) float64 {
	opt = legacyDefaults(opt)

	// CLB site geometry.
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

	// colOf maps a column x to its index in cols.
	colOf := make(map[float64]int, len(cols))
	for k, x := range colX {
		colOf[x] = k
	}

	// Occupancy: cells per (col, row).
	type siteKey struct{ col, row int }
	occ := make(map[siteKey][]int)
	var ids []int
	for i, c := range nl.Cells {
		if c.Fixed || !legacyMovable(c.Type) {
			continue
		}
		k, ok := colOf[pos[i].X]
		if !ok {
			continue // not on a CLB site (unplaced or other resource)
		}
		row := int(pos[i].Y/pitch + 0.5)
		if row < 0 || row >= numRows {
			continue
		}
		occ[siteKey{k, row}] = append(occ[siteKey{k, row}], i)
		ids = append(ids, i)
	}
	if len(ids) == 0 {
		return 0
	}

	// Nets per cell for delta evaluation.
	netsOf := make([][]*netlist.Net, nl.NumCells())
	for _, n := range nl.Nets {
		for _, p := range n.Pins() {
			netsOf[p] = append(netsOf[p], n)
		}
	}
	hpwlOf := func(n *netlist.Net) float64 {
		r := geom.EmptyRect()
		r = r.Expand(pos[n.Driver])
		for _, s := range n.Sinks {
			r = r.Expand(pos[s])
		}
		return r.HalfPerimeter() * n.Weight
	}
	// cost of the union of both cells' nets (deduplicated by net id).
	costAround := func(a, b int) float64 {
		total := 0.0
		seen := map[int]bool{}
		for _, n := range netsOf[a] {
			if !seen[n.ID] {
				seen[n.ID] = true
				total += hpwlOf(n)
			}
		}
		if b >= 0 {
			for _, n := range netsOf[b] {
				if !seen[n.ID] {
					seen[n.ID] = true
					total += hpwlOf(n)
				}
			}
		}
		return total
	}

	rng := rand.New(rand.NewSource(opt.Seed + 3))
	gain := 0.0
	for pass := 0; pass < opt.Passes; pass++ {
		order := rng.Perm(len(ids))
		for _, oi := range order {
			c := ids[oi]
			curK := colOf[pos[c].X]
			curRow := int(pos[c].Y/pitch + 0.5)
			cur := siteKey{curK, curRow}

			bestDelta := -1e-9 // only strictly improving moves
			bestTarget := siteKey{-1, -1}
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
					tgt := siteKey{tk, tr}
					if tgt == cur {
						continue
					}
					tgtPos := geom.Point{X: colX[tk], Y: float64(tr) * pitch}
					if len(occ[tgt]) < capacity {
						// Free-slot move.
						before := costAround(c, -1)
						old := pos[c]
						pos[c] = tgtPos
						delta := costAround(c, -1) - before
						pos[c] = old
						if delta < bestDelta {
							bestDelta = delta
							bestTarget = tgt
							bestSwap = -1
						}
					} else {
						// Swap with the first resident (cheap heuristic).
						o := occ[tgt][0]
						if o == c {
							continue
						}
						before := costAround(c, o)
						oldC, oldO := pos[c], pos[o]
						pos[c], pos[o] = oldO, oldC
						delta := costAround(c, o) - before
						pos[c], pos[o] = oldC, oldO
						if delta < bestDelta {
							bestDelta = delta
							bestTarget = tgt
							bestSwap = o
						}
					}
				}
			}
			if bestTarget.col < 0 {
				continue
			}
			tgtPos := geom.Point{X: colX[bestTarget.col], Y: float64(bestTarget.row) * pitch}
			if bestSwap < 0 {
				pos[c] = tgtPos
				occ[cur] = legacyRemove(occ[cur], c)
				occ[bestTarget] = append(occ[bestTarget], c)
			} else {
				pos[c], pos[bestSwap] = pos[bestSwap], pos[c]
				occ[cur] = legacyRemove(occ[cur], c)
				occ[bestTarget] = legacyRemove(occ[bestTarget], bestSwap)
				occ[cur] = append(occ[cur], bestSwap)
				occ[bestTarget] = append(occ[bestTarget], c)
			}
			gain += -bestDelta
		}
	}
	return gain
}

func legacyRemove(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// refineBoth runs the reference and Refine on copies of pos and fails
// unless both leave every cell at the same bits and report the same gain.
func refineBoth(t *testing.T, dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, opt detailed.Options) float64 {
	t.Helper()
	want := append([]geom.Point(nil), pos...)
	got := append([]geom.Point(nil), pos...)
	wantGain := legacyRefine(dev, nl, want, opt)
	gotGain := detailed.Refine(dev, nl, got, opt)
	if math.Float64bits(gotGain) != math.Float64bits(wantGain) {
		t.Fatalf("gain %v (bits %#x), reference %v (bits %#x)", gotGain, math.Float64bits(gotGain), wantGain, math.Float64bits(wantGain))
	}
	for i := range want {
		if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) || math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			t.Fatalf("cell %d at %v, reference %v", i, got[i], want[i])
		}
	}
	return gotGain
}

// miniSpec scales a Table I spec down as cmd/experiments -mini does.
func miniSpec(s gen.Spec) gen.Spec {
	return gen.Spec{Name: "mini-" + s.Name, LUT: s.LUT / 16, LUTRAM: s.LUTRAM / 16, FF: s.FF / 16,
		BRAM: s.BRAM / 8, DSP: s.DSP / 8, FreqMHz: s.FreqMHz, Seed: s.Seed}
}

// placed returns spec's netlist after a placement in mode on zcu104, with
// no detailed pass, so refinement has work to do.
func placed(t testing.TB, spec gen.Spec, mode placer.Mode) (*fpga.Device, *netlist.Netlist, []geom.Point) {
	t.Helper()
	dev := fpga.MustDevice("zcu104")
	nl, err := gen.Generate(spec, dev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := placer.Place(dev, nl, placer.Options{Mode: mode, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return dev, nl, res.Pos
}

func TestRefineMatchesReferenceAfterPlacement(t *testing.T) {
	for _, spec := range []gen.Spec{gen.Small(), miniSpec(gen.TableI()[0])} {
		for _, mode := range []placer.Mode{placer.ModeVivado, placer.ModeAMF} {
			dev, nl, pos := placed(t, spec, mode)
			for _, weights := range []string{"unit", "random"} {
				t.Run(spec.Name+"/"+mode.String()+"/"+weights, func(t *testing.T) {
					// Unit weights, or random ones standing in for the
					// timing polish's criticality weights.
					rng := rand.New(rand.NewSource(spec.Seed))
					for _, n := range nl.Nets {
						n.Weight = 1
						if weights == "random" {
							n.Weight = 1 + 4*rng.Float64()
						}
					}
					if gain := refineBoth(t, dev, nl, pos, detailed.Options{Passes: 2, Seed: spec.Seed}); gain <= 0 {
						t.Fatalf("gain %v: the case tests nothing", gain)
					}
				})
			}
		}
	}
}

func TestRefineMatchesReferenceOverfullSite(t *testing.T) {
	dev, nl, pos := placed(t, gen.Small(), placer.ModeVivado)
	capacity := dev.Columns[dev.ColumnsOf(fpga.CLB)[0]].Capacity
	// Stack capacity+3 LUTs on the site of the first LUT.
	var luts []int
	for i, c := range nl.Cells {
		if c.Type == netlist.LUT {
			luts = append(luts, i)
		}
	}
	site := pos[luts[0]]
	for _, i := range luts[1 : capacity+3] {
		pos[i] = site
	}
	refineBoth(t, dev, nl, pos, detailed.Options{Passes: 2, Seed: 5})
}

// TestRefineMatchesReferenceRandom drives both on small random netlists
// with what placements rarely hold: crowded and overfull sites, cells off
// the column grid or outside the rows, rows off their exact y, nets that
// list a cell twice, fixed and non-movable cells, and varied windows.
func TestRefineMatchesReferenceRandom(t *testing.T) {
	dev, err := fpga.NewDevice(fpga.Config{Name: "dt", Pattern: "CCCB", Repeats: 3, RegionRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	cols := dev.ColumnsOf(fpga.CLB)
	pitch := dev.Columns[cols[0]].YPitch
	rows := dev.Columns[cols[0]].NumSites
	types := []netlist.CellType{netlist.LUT, netlist.FF, netlist.Carry, netlist.LUTRAM, netlist.DSP, netlist.BRAM}
	gained := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := netlist.New("rand")
		n := 20 + rng.Intn(150)
		// Half the cases crowd every cell into a 3×4-site corner, whose
		// full sites force swaps.
		useCols, useRows := len(cols), rows
		if seed%2 == 0 {
			useCols, useRows = 3, 4
		}
		pos := make([]geom.Point, 0, n)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				at := geom.Point{X: 12 * rng.Float64(), Y: float64(rows) * rng.Float64()}
				nl.AddFixedCell("io", netlist.IO, at)
				pos = append(pos, at)
				continue
			}
			nl.AddCell("c", types[rng.Intn(len(types))])
			at := geom.Point{X: dev.Columns[cols[rng.Intn(useCols)]].X, Y: float64(rng.Intn(useRows)) * pitch}
			switch rng.Intn(10) {
			case 0:
				at.X += 0.5 // between columns
			case 1:
				at.Y += 0.3 * pitch // rounds to its row
			case 2:
				at.Y = -pitch // below the first row
			}
			pos = append(pos, at)
		}
		for k := n/2 + rng.Intn(2*n); k > 0; k-- {
			sinks := make([]int, 1+rng.Intn(5))
			for s := range sinks {
				sinks[s] = rng.Intn(n) // repeats and the driver itself allowed
			}
			nl.AddNet("n", rng.Intn(n), sinks...).Weight = 0.5 + 3*rng.Float64()
		}
		opt := detailed.Options{Passes: 1 + rng.Intn(3), WindowCols: 1 + rng.Intn(3), WindowRows: 1 + rng.Intn(5), Seed: seed}
		if refineBoth(t, dev, nl, pos, opt) > 0 {
			gained++
		}
	}
	if gained < 100 {
		t.Fatalf("only %d of 200 cases moved a cell", gained)
	}
}
