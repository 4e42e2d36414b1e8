package detailed

import (
	"math/rand"
	"testing"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/metrics"
	"dsplacer/internal/netlist"
)

func dev(t *testing.T) *fpga.Device {
	t.Helper()
	d, err := fpga.NewDevice(fpga.Config{Name: "dt", Pattern: "CCCB", Repeats: 3, RegionRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// scrambled builds a chain netlist legally placed on CLB sites but in a
// deliberately bad order, so refinement has obvious gains.
func scrambled(t *testing.T, d *fpga.Device, n int, seed int64) (*netlist.Netlist, []geom.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New("dt")
	var pos []geom.Point
	cols := d.ColumnsOf(fpga.CLB)
	pitch := d.Columns[cols[0]].YPitch
	sites := make([]geom.Point, 0)
	for _, ci := range cols {
		for r := 0; r < d.Columns[ci].NumSites; r++ {
			sites = append(sites, geom.Point{X: d.Columns[ci].X, Y: float64(r) * pitch})
		}
	}
	perm := rng.Perm(len(sites))
	var prev int = -1
	for i := 0; i < n; i++ {
		c := nl.AddCell("c", netlist.LUT)
		pos = append(pos, sites[perm[i]])
		if prev >= 0 {
			nl.AddNet("n", prev, c.ID)
		}
		prev = c.ID
	}
	return nl, pos
}

func TestRefineImprovesHPWL(t *testing.T) {
	d := dev(t)
	nl, pos := scrambled(t, d, 60, 1)
	before := metrics.HPWL(nl, pos)
	gain := Refine(d, nl, pos, Options{Passes: 3, Seed: 1})
	after := metrics.HPWL(nl, pos)
	if gain <= 0 {
		t.Fatalf("no gain: %v", gain)
	}
	if !(after < before) {
		t.Fatalf("HPWL %v → %v", before, after)
	}
	// Reported gain must match the actual HPWL delta.
	if diff := (before - after) - gain; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("gain %v vs measured %v", gain, before-after)
	}
}

func TestRefinePreservesCapacity(t *testing.T) {
	d := dev(t)
	nl, pos := scrambled(t, d, 80, 2)
	// Pile extra cells onto shared sites up to capacity.
	if _, ok := checkCapacity(d, nl, pos); !ok {
		t.Fatal("precondition: start legal")
	}
	Refine(d, nl, pos, Options{Passes: 2, Seed: 2})
	if worst, ok := checkCapacity(d, nl, pos); !ok {
		t.Fatalf("capacity violated: worst %d", worst)
	}
	// Cells must still sit exactly on CLB sites.
	colX := map[float64]bool{}
	for _, ci := range d.ColumnsOf(fpga.CLB) {
		colX[d.Columns[ci].X] = true
	}
	for i, c := range nl.Cells {
		if c.Fixed {
			continue
		}
		if !colX[pos[i].X] {
			t.Fatalf("cell %d off-grid at %v", i, pos[i])
		}
	}
}

func TestRefineLeavesDSPAlone(t *testing.T) {
	d := dev(t)
	nl := netlist.New("dsp")
	a := nl.AddCell("a", netlist.LUT)
	dsp := nl.AddCell("d", netlist.DSP)
	nl.AddNet("n", a.ID, dsp.ID)
	cols := d.ColumnsOf(fpga.CLB)
	pos := []geom.Point{
		{X: d.Columns[cols[0]].X, Y: 0},
		{X: 99, Y: 99}, // pretend DSP site
	}
	Refine(d, nl, pos, Options{})
	if pos[dsp.ID] != (geom.Point{X: 99, Y: 99}) {
		t.Fatal("DSP moved by detailed placement")
	}
}

func TestRefineNoMovablesNoop(t *testing.T) {
	d := dev(t)
	nl := netlist.New("empty")
	nl.AddFixedCell("io", netlist.IO, geom.Point{X: 1, Y: 1})
	b := nl.AddFixedCell("io2", netlist.IO, geom.Point{X: 2, Y: 2})
	nl.AddNet("n", 0, b.ID)
	pos := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if gain := Refine(d, nl, pos, Options{}); gain != 0 {
		t.Fatalf("gain=%v", gain)
	}
}

// checkCapacity reports the most movable cells on any one position and
// whether that fits a CLB site's capacity.
func checkCapacity(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point) (worst int, ok bool) {
	cols := dev.ColumnsOf(fpga.CLB)
	if len(cols) == 0 {
		return 0, true
	}
	load := map[geom.Point]int{}
	for i, c := range nl.Cells {
		if !c.Fixed && movable(c.Type) {
			load[pos[i]]++
			worst = max(worst, load[pos[i]])
		}
	}
	return worst, worst <= dev.Columns[cols[0]].Capacity
}
