package assign

import (
	"context"
	"testing"

	"dsplacer/internal/dspgraph"
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

func smallDevice(t *testing.T) *fpga.Device {
	t.Helper()
	d, err := fpga.NewDevice(fpga.Config{
		Name: "small", Pattern: "CCDC", Repeats: 4, RegionRows: 2,
		PSWidth: 2, PSHeight: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// anchoredDSPs builds a netlist with two fixed anchors and nd DSPs chained
// between them: anchor0 → d0 → d1 → ... → anchor1.
func anchoredDSPs(nd int, a0, a1 geom.Point) (*netlist.Netlist, []int) {
	nl := netlist.New("a")
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
	return nl, ids
}

func positions(nl *netlist.Netlist, def geom.Point) []geom.Point {
	pos := make([]geom.Point, nl.NumCells())
	for i, c := range nl.Cells {
		if c.Fixed {
			pos[i] = c.FixedAt
		} else {
			pos[i] = def
		}
	}
	return pos
}

func TestSolveAssignsUniqueSites(t *testing.T) {
	dev := smallDevice(t)
	nl, ids := anchoredDSPs(6, geom.Point{X: 2, Y: 10}, geom.Point{X: 10, Y: 30})
	dg := dspgraph.Build(nl, dspgraph.Config{})
	res, err := Solve(context.Background(), &Problem{
		Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: positions(nl, geom.Point{X: 6, Y: 20}), Iterations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SiteOf) != 6 {
		t.Fatalf("assigned %d of 6", len(res.SiteOf))
	}
	seen := make(map[int]bool)
	for c, j := range res.SiteOf {
		if j < 0 || j >= dev.NumDSPSites() {
			t.Fatalf("cell %d site %d out of range", c, j)
		}
		if seen[j] {
			t.Fatalf("site %d assigned twice", j)
		}
		seen[j] = true
	}
}

func TestSolvePullsTowardAnchors(t *testing.T) {
	dev := smallDevice(t)
	// Anchors on the left side; DSPs must land near them, not at the far
	// right of the device.
	nl, ids := anchoredDSPs(3, geom.Point{X: 1, Y: 5}, geom.Point{X: 3, Y: 10})
	dg := dspgraph.Build(nl, dspgraph.Config{})
	res, err := Solve(context.Background(), &Problem{
		Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: positions(nl, geom.Point{X: 2, Y: 8}), Iterations: 10, Lambda: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := dev.DSPSites()
	for c, j := range res.SiteOf {
		loc := dev.Loc(sites[j])
		if loc.X > dev.Width/2 {
			t.Fatalf("cell %d placed at %v, far from left anchors", c, loc)
		}
	}
}

func TestConvergence(t *testing.T) {
	dev := smallDevice(t)
	nl, ids := anchoredDSPs(4, geom.Point{X: 2, Y: 10}, geom.Point{X: 6, Y: 20})
	dg := dspgraph.Build(nl, dspgraph.Config{})
	res, err := Solve(context.Background(), &Problem{
		Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: positions(nl, geom.Point{X: 4, Y: 15}), Iterations: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no fixed point in %d iterations", res.Iterations)
	}
	if res.Iterations >= 50 {
		t.Fatalf("converged flag set but used all iterations")
	}
	if len(res.Trace) != res.Iterations {
		t.Fatalf("%d trace rows for %d iterations", len(res.Trace), res.Iterations)
	}
	for k, row := range res.Trace {
		if row.Iter != k+1 {
			t.Fatalf("trace row %d has Iter %d, want %d", k, row.Iter, k+1)
		}
	}
}

func TestLambdaOrdersDatapath(t *testing.T) {
	dev := smallDevice(t)
	// Two DSPs with symmetric anchors; the datapath edge d0→d1 plus a large
	// λ must give d0 (predecessor) a smaller cos-angle than d1.
	nl := netlist.New("lam")
	d0 := nl.AddCell("d0", netlist.DSP)
	d1 := nl.AddCell("d1", netlist.DSP)
	nl.AddNet("n", d0.ID, d1.ID)
	ids := []int{d0.ID, d1.ID}
	dg := dspgraph.Build(nl, dspgraph.Config{})
	if len(dg.Edges) != 1 {
		t.Fatalf("edges=%v", dg.Edges)
	}
	pos := []geom.Point{{X: 8, Y: 30}, {X: 8, Y: 30}}
	res, err := Solve(context.Background(), &Problem{
		Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: pos, Iterations: 20, Lambda: 10000, Candidates: dev.NumDSPSites(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := dev.DSPSites()
	corner := dev.PSCorner()
	c0 := dev.Loc(sites[res.SiteOf[d0.ID]]).Sub(corner).CosAngle()
	c1 := dev.Loc(sites[res.SiteOf[d1.ID]]).Sub(corner).CosAngle()
	if !(c0 <= c1) {
		t.Fatalf("datapath order violated: cos(pred)=%v > cos(succ)=%v", c0, c1)
	}
}

func TestEtaEncouragesCascadeAdjacency(t *testing.T) {
	dev := smallDevice(t)
	nl, ids := anchoredDSPs(4, geom.Point{X: 4, Y: 20}, geom.Point{X: 4, Y: 30})
	nl.AddMacro(ids) // 4-cell cascade macro
	dg := dspgraph.Build(nl, dspgraph.Config{})
	withEta, err := Solve(context.Background(), &Problem{
		Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: positions(nl, geom.Point{X: 4, Y: 25}), Iterations: 30, Eta: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	noEta, err := Solve(context.Background(), &Problem{
		Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: positions(nl, geom.Point{X: 4, Y: 25}), Iterations: 30, Eta: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	vWith := Violations(dev, nl, withEta.SiteOf)
	vWithout := Violations(dev, nl, noEta.SiteOf)
	if vWith > vWithout {
		t.Fatalf("η made cascades worse: %d vs %d violations", vWith, vWithout)
	}
}

func TestTooManyDSPs(t *testing.T) {
	dev := smallDevice(t)
	n := dev.NumDSPSites() + 1
	nl := netlist.New("big")
	var ids []int
	anchor := nl.AddFixedCell("a", netlist.IO, geom.Point{X: 1, Y: 1})
	for i := 0; i < n; i++ {
		d := nl.AddCell("d", netlist.DSP)
		nl.AddNet("n", anchor.ID, d.ID)
		ids = append(ids, d.ID)
	}
	dg := dspgraph.Build(nl, dspgraph.Config{})
	_, err := Solve(context.Background(), &Problem{
		Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: positions(nl, geom.Point{}),
	})
	if err == nil {
		t.Fatal("oversubscribed device accepted")
	}
}

func TestEmptyProblem(t *testing.T) {
	dev := smallDevice(t)
	nl := netlist.New("empty")
	a := nl.AddCell("a", netlist.LUT)
	b := nl.AddCell("b", netlist.LUT)
	nl.AddNet("n", a.ID, b.ID)
	dg := dspgraph.Build(nl, dspgraph.Config{})
	res, err := Solve(context.Background(), &Problem{Device: dev, Netlist: nl, Graph: dg, DSPs: nil,
		Pos: positions(nl, geom.Point{})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.SiteOf) != 0 {
		t.Fatalf("res=%+v", res)
	}
}

func TestObjectiveDecreasesVsRandom(t *testing.T) {
	dev := smallDevice(t)
	nl, ids := anchoredDSPs(5, geom.Point{X: 2, Y: 10}, geom.Point{X: 6, Y: 30})
	dg := dspgraph.Build(nl, dspgraph.Config{})
	p := &Problem{Device: dev, Netlist: nl, Graph: dg, DSPs: ids,
		Pos: positions(nl, geom.Point{X: 4, Y: 20}), Iterations: 20}
	res, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	solved := Objective(p, res.SiteOf)
	// Adversarial baseline: all DSPs at the far end of the site list.
	bad := make(map[int]int, len(ids))
	M := dev.NumDSPSites()
	for i, c := range ids {
		bad[c] = M - 1 - i
	}
	if !(solved < Objective(p, bad)) {
		t.Fatalf("solved objective %v not better than adversarial %v", solved, Objective(p, bad))
	}
}
