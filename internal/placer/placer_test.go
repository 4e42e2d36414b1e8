package placer

import (
	"math/rand"
	"testing"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/metrics"
	"dsplacer/internal/netlist"
)

func testDevice(t *testing.T) *fpga.Device {
	t.Helper()
	d, err := fpga.NewDevice(fpga.Config{
		Name: "pt", Pattern: "CCDCB", Repeats: 4, RegionRows: 2,
		PSWidth: 3, PSHeight: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomDesign builds a small design with LUT/FF clouds, a DSP macro chain
// and BRAMs, anchored by fixed IOs.
func randomDesign(seed int64, nLUT, nFF, nDSP, nBRAM int, dev *fpga.Device) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New("rand")
	io1 := nl.AddFixedCell("in", netlist.IO, geom.Point{X: 0, Y: dev.Height / 2})
	io2 := nl.AddFixedCell("out", netlist.IO, geom.Point{X: dev.Width - 1, Y: dev.Height / 2})
	var luts, ffs, dsps, brams []int
	for i := 0; i < nLUT; i++ {
		luts = append(luts, nl.AddCell("l", netlist.LUT).ID)
	}
	for i := 0; i < nFF; i++ {
		ffs = append(ffs, nl.AddCell("f", netlist.FF).ID)
	}
	for i := 0; i < nDSP; i++ {
		dsps = append(dsps, nl.AddCell("d", netlist.DSP).ID)
	}
	for i := 0; i < nBRAM; i++ {
		brams = append(brams, nl.AddCell("b", netlist.BRAM).ID)
	}
	if nDSP >= 3 {
		nl.AddMacro(dsps[:3])
	}
	// Random connectivity guaranteeing every cell touches a net.
	all := append(append(append([]int{}, luts...), ffs...), append(dsps, brams...)...)
	prev := io1.ID
	for _, c := range all {
		nl.AddNet("n", prev, c)
		prev = c
	}
	nl.AddNet("n", prev, io2.ID)
	for k := 0; k < len(all); k++ {
		a := all[rng.Intn(len(all))]
		b := all[rng.Intn(len(all))]
		if a != b {
			nl.AddNet("r", a, b)
		}
	}
	return nl
}

// checkLegalPlacement verifies: DSPs on distinct DSP sites with cascades
// intact; BRAM/CLB cells on columns of the right resource within capacity.
func checkLegalPlacement(t *testing.T, dev *fpga.Device, nl *netlist.Netlist, res *Result) {
	t.Helper()
	sites := dev.DSPSites()
	used := map[int]bool{}
	for _, c := range nl.CellsOfType(netlist.DSP) {
		j, ok := res.SiteOfDSP[c]
		if !ok {
			t.Fatalf("DSP %d has no site", c)
		}
		if used[j] {
			t.Fatalf("DSP site %d double-booked", j)
		}
		used[j] = true
		if res.Pos[c] != dev.Loc(sites[j]) {
			t.Fatalf("DSP %d position %v != site loc %v", c, res.Pos[c], dev.Loc(sites[j]))
		}
	}
	for _, pair := range nl.CascadePairs() {
		sp := sites[res.SiteOfDSP[pair[0]]]
		ss := sites[res.SiteOfDSP[pair[1]]]
		if sp.Col != ss.Col || ss.Row != sp.Row+1 {
			t.Fatalf("cascade %v broken: %+v %+v", pair, sp, ss)
		}
	}
	// Capacity per CLB site.
	load := map[geom.Point]int{}
	for _, c := range nl.Cells {
		if c.Fixed {
			continue
		}
		switch c.Type {
		case netlist.LUT, netlist.LUTRAM, netlist.FF, netlist.Carry:
			load[res.Pos[c.ID]]++
		case netlist.BRAM:
			load[res.Pos[c.ID]]++
		}
	}
	// Column x values per resource.
	colRes := map[float64]fpga.Resource{}
	for i := range dev.Columns {
		colRes[dev.Columns[i].X] = dev.Columns[i].Res
	}
	for _, c := range nl.Cells {
		if c.Fixed {
			continue
		}
		p := res.Pos[c.ID]
		switch c.Type {
		case netlist.LUT, netlist.LUTRAM, netlist.FF, netlist.Carry:
			if colRes[p.X] != fpga.CLB {
				t.Fatalf("cell %d (%v) at %v not on a CLB column", c.ID, c.Type, p)
			}
			if load[p] > 8 {
				t.Fatalf("CLB site %v over capacity: %d", p, load[p])
			}
		case netlist.BRAM:
			if colRes[p.X] != fpga.BRAMRes {
				t.Fatalf("BRAM %d at %v not on a BRAM column", c.ID, p)
			}
			if load[p] > 1 {
				t.Fatalf("BRAM site %v over capacity", p)
			}
		}
	}
}

func TestPlaceVivadoLegal(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(1, 120, 100, 8, 4, dev)
	res, err := Place(dev, nl, Options{Mode: ModeVivado, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkLegalPlacement(t, dev, nl, res)
	if res.HPWL <= 0 {
		t.Fatal("HPWL not computed")
	}
}

func TestPlaceAMFLegal(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(2, 80, 60, 10, 3, dev)
	res, err := Place(dev, nl, Options{Mode: ModeAMF, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkLegalPlacement(t, dev, nl, res)
}

func TestPlaceDSPlacerModeRespectsFixedSites(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(3, 60, 50, 6, 2, dev)
	dsps := nl.CellsOfType(netlist.DSP)
	fixed := map[int]int{dsps[3]: 0, dsps[4]: 1, dsps[5]: 2}
	res, err := Place(dev, nl, Options{Mode: ModeDSPlacer, Seed: 3, FixedSites: fixed})
	if err != nil {
		t.Fatal(err)
	}
	checkLegalPlacement(t, dev, nl, res)
	for c, j := range fixed {
		if res.SiteOfDSP[c] != j {
			t.Fatalf("fixed DSP %d moved from site %d to %d", c, j, res.SiteOfDSP[c])
		}
	}
}

func TestPlacementQualityBeatsRandom(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(4, 150, 120, 8, 4, dev)
	res, err := Place(dev, nl, Options{Mode: ModeVivado, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Random legal-ish placement for comparison: shuffle positions of
	// movable cells across the device.
	rng := rand.New(rand.NewSource(99))
	randPos := make([]geom.Point, nl.NumCells())
	copy(randPos, res.Pos)
	for i, c := range nl.Cells {
		if !c.Fixed {
			randPos[i] = geom.Point{X: rng.Float64() * dev.Width, Y: rng.Float64() * dev.Height}
		}
	}
	if !(res.HPWL < metrics.HPWL(nl, randPos)) {
		t.Fatalf("placed HPWL %v not better than random %v", res.HPWL, metrics.HPWL(nl, randPos))
	}
}

func TestAMFPacksContiguously(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(5, 60, 50, 12, 2, dev)
	amf, err := Place(dev, nl, Options{Mode: ModeAMF, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkLegalPlacement(t, dev, nl, amf)
	// AMF's defining property here: DSPs form contiguous runs per column —
	// the total number of "gaps" inside used columns is zero.
	sites := dev.DSPSites()
	usedRows := map[int][]int{}
	for _, j := range amf.SiteOfDSP {
		s := sites[j]
		usedRows[s.Col] = append(usedRows[s.Col], s.Row)
	}
	for col, rows := range usedRows {
		minR, maxR := rows[0], rows[0]
		for _, r := range rows {
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		if maxR-minR+1 != len(rows) {
			t.Fatalf("column %d has gaps: %d rows spanning %d", col, len(rows), maxR-minR+1)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(6, 10, 10, 2, 1, dev)
	if _, err := Place(dev, nl, Options{FixedSites: map[int]int{0: 0}}); err == nil {
		t.Fatal("non-DSP fixed site accepted")
	}
	dsp := nl.CellsOfType(netlist.DSP)[0]
	if _, err := Place(dev, nl, Options{FixedSites: map[int]int{dsp: -3}}); err == nil {
		t.Fatal("invalid site accepted")
	}
}

func TestNearestFreeRow(t *testing.T) {
	remain := []int{0, 0, 1, 0, 2}
	if r := nearestFreeRow(remain, 0); r != 2 {
		t.Fatalf("r=%d", r)
	}
	if r := nearestFreeRow(remain, 4); r != 4 {
		t.Fatalf("r=%d", r)
	}
	if r := nearestFreeRow([]int{0, 0}, 1); r != -1 {
		t.Fatalf("r=%d", r)
	}
	if r := nearestFreeRow(remain, -5); r != 2 {
		t.Fatalf("clamped low r=%d", r)
	}
	if r := nearestFreeRow(remain, 99); r != 4 {
		t.Fatalf("clamped high r=%d", r)
	}
}

func TestDeterminism(t *testing.T) {
	dev := testDevice(t)
	nl1 := randomDesign(7, 40, 40, 4, 2, dev)
	nl2 := randomDesign(7, 40, 40, 4, 2, dev)
	r1, err := Place(dev, nl1, Options{Mode: ModeVivado, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(dev, nl2, Options{Mode: ModeVivado, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Pos {
		if r1.Pos[i] != r2.Pos[i] {
			t.Fatalf("nondeterministic position at cell %d", i)
		}
	}
}

func TestDetailedPassImprovesOrMatches(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(8, 150, 120, 6, 3, dev)
	plain, err := Place(dev, nl, Options{Mode: ModeVivado, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Place(dev, nl, Options{Mode: ModeVivado, Seed: 8, DetailedPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkLegalPlacement(t, dev, nl, refined)
	if refined.HPWL > plain.HPWL+1e-9 {
		t.Fatalf("detailed pass worsened HPWL: %v vs %v", refined.HPWL, plain.HPWL)
	}
	// DSP sites must be identical — detailed placement never touches them.
	for c, j := range plain.SiteOfDSP {
		if refined.SiteOfDSP[c] != j {
			t.Fatalf("DSP %d moved by detailed placement", c)
		}
	}
}
