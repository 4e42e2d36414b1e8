package dspgraph

import (
	"testing"

	"dsplacer/internal/netlist"
)

// peChain builds dsp0 →lut→ dsp1 →ff→ dsp2, plus a far dsp3 through many
// LUT hops, and a control dsp4 reached via FF+BRAM.
func peChain() *netlist.Netlist {
	nl := netlist.New("pe")
	d0 := nl.AddCell("d0", netlist.DSP)
	lut := nl.AddCell("lut", netlist.LUT)
	d1 := nl.AddCell("d1", netlist.DSP)
	ff := nl.AddCell("ff", netlist.FF)
	d2 := nl.AddCell("d2", netlist.DSP)
	nl.AddNet("n0", d0.ID, lut.ID)
	nl.AddNet("n1", lut.ID, d1.ID)
	nl.AddNet("n2", d1.ID, ff.ID)
	nl.AddNet("n3", ff.ID, d2.ID)
	// Long chain to d3: 5 LUT hops (within depth 8).
	prev := d2.ID
	for i := 0; i < 5; i++ {
		c := nl.AddCell("l", netlist.LUT)
		nl.AddNet("c", prev, c.ID)
		prev = c.ID
	}
	d3 := nl.AddCell("d3", netlist.DSP)
	nl.AddNet("e", prev, d3.ID)
	// Control DSP reached via FF and BRAM.
	cff := nl.AddCell("cff", netlist.FF)
	cbr := nl.AddCell("cbr", netlist.BRAM)
	d4 := nl.AddCell("d4", netlist.DSP)
	nl.AddNet("c0", d0.ID, cff.ID)
	nl.AddNet("c1", cff.ID, cbr.ID)
	nl.AddNet("c2", cbr.ID, d4.ID)
	return nl
}

func TestBuildFindsDirectEdges(t *testing.T) {
	nl := peChain()
	dg := Build(nl, Config{})
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dg.Nodes) != 5 {
		t.Fatalf("nodes=%v", dg.Nodes)
	}
	find := func(from, to int) *Edge {
		for i := range dg.Edges {
			if dg.Edges[i].From == from && dg.Edges[i].To == to {
				return &dg.Edges[i]
			}
		}
		return nil
	}
	e01 := find(0, 2) // d0 (cell 0) → d1 (cell 2)
	if e01 == nil || e01.Dist != 2 {
		t.Fatalf("d0→d1 edge: %+v", e01)
	}
	if e01.PathCells[netlist.LUT] != 1 {
		t.Fatalf("d0→d1 path cells: %v", e01.PathCells)
	}
	// d0→d2 would tunnel through d1 → must be absent.
	d2 := 4
	if e := find(0, d2); e != nil {
		t.Fatalf("d0→d2 should be blocked by d1: %+v", e)
	}
	// d1→d2 via ff.
	if e := find(2, d2); e == nil || e.Dist != 2 || e.PathCells[netlist.FF] != 1 {
		t.Fatalf("d1→d2: %+v", e)
	}
}

func TestMaxDepthPrunes(t *testing.T) {
	nl := peChain()
	dg := Build(nl, Config{MaxDepth: 3})
	for _, e := range dg.Edges {
		if e.Dist > 3 {
			t.Fatalf("edge beyond depth: %+v", e)
		}
	}
	// The d2→d3 edge (6 hops) requires a larger depth.
	dgWide := Build(nl, Config{MaxDepth: 8})
	found := false
	for _, e := range dgWide.Edges {
		if e.Dist == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("6-hop edge not discovered at depth 8")
	}
}

func TestFilter(t *testing.T) {
	nl := peChain()
	dg := Build(nl, Config{})
	// Keep only d0 (cell 0) and d1 (cell 2).
	keep := map[int]bool{0: true, 2: true}
	f := dg.Filter(func(id int) bool { return keep[id] })
	if len(f.Nodes) != 2 {
		t.Fatalf("filtered nodes=%v", f.Nodes)
	}
	for _, e := range f.Edges {
		if !keep[e.From] || !keep[e.To] {
			t.Fatalf("edge with dropped endpoint: %+v", e)
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStorageAlongPaths(t *testing.T) {
	nl := peChain()
	dg := Build(nl, Config{})
	storage := dg.StorageAlongPaths()
	// d4 (control) is reached through FF+BRAM → storage 2; d1 through a LUT
	// on one side and FF on the other.
	d4 := nl.CellsOfType(netlist.DSP)[4]
	if storage[d4] != 2 {
		t.Fatalf("storage[d4]=%d want 2", storage[d4])
	}
}
