package sta

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// ffChain: ff0 → lut → ff1, with configurable distances.
func ffChain() (*netlist.Netlist, []geom.Point) {
	nl := netlist.New("t")
	ff0 := nl.AddCell("ff0", netlist.FF)
	lut := nl.AddCell("lut", netlist.LUT)
	ff1 := nl.AddCell("ff1", netlist.FF)
	nl.AddNet("n0", ff0.ID, lut.ID)
	nl.AddNet("n1", lut.ID, ff1.ID)
	pos := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}}
	return nl, pos
}

func TestSimplePathDelay(t *testing.T) {
	nl, pos := ffChain()
	m := DefaultModel()
	res, err := Analyze(nl, pos, Options{ClockPeriodNs: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Path: clk2q(FF) + wire(10) + LUT + wire(10) + setup.
	wire := m.WireBase + m.WirePerUnit*10
	want := 10 - (m.Clk2Q[netlist.FF] + wire + m.CombDelay[netlist.LUT] + wire + m.Setup)
	if math.Abs(res.WNS-want) > 1e-9 {
		t.Fatalf("WNS=%v want %v", res.WNS, want)
	}
	if res.TNS != 0 {
		t.Fatalf("TNS=%v want 0", res.TNS)
	}
	// Worst path is ff0 → lut → ff1.
	if len(res.WorstPath) != 3 || res.WorstPath[0] != 0 || res.WorstPath[2] != 2 {
		t.Fatalf("worst path %v", res.WorstPath)
	}
}

func TestNegativeSlackAndTNS(t *testing.T) {
	nl, pos := ffChain()
	res, err := Analyze(nl, pos, Options{ClockPeriodNs: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.WNS >= 0 {
		t.Fatalf("WNS=%v should be negative at 0.3ns", res.WNS)
	}
	if math.Abs(res.TNS-res.WNS) > 1e-9 {
		t.Fatalf("single endpoint: TNS %v != WNS %v", res.TNS, res.WNS)
	}
}

func TestLongerWireWorsensSlack(t *testing.T) {
	nl, pos := ffChain()
	near, _ := Analyze(nl, pos, Options{ClockPeriodNs: 5})
	far := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	farRes, _ := Analyze(nl, far, Options{ClockPeriodNs: 5})
	if !(farRes.WNS < near.WNS) {
		t.Fatalf("far WNS %v not worse than near %v", farRes.WNS, near.WNS)
	}
}

func TestCongestionWorsensSlack(t *testing.T) {
	nl, pos := ffChain()
	base, _ := Analyze(nl, pos, Options{ClockPeriodNs: 5})
	cong, _ := Analyze(nl, pos, Options{ClockPeriodNs: 5, Congestion: []float64{3, 3}})
	if !(cong.WNS < base.WNS) {
		t.Fatalf("congested WNS %v not worse than %v", cong.WNS, base.WNS)
	}
	// Sub-unity congestion must not speed nets up.
	fast, _ := Analyze(nl, pos, Options{ClockPeriodNs: 5, Congestion: []float64{0.1, 0.1}})
	if math.Abs(fast.WNS-base.WNS) > 1e-12 {
		t.Fatal("congestion < 1 altered delay")
	}
}

func TestSequentialCutsPaths(t *testing.T) {
	// ff → dsp → ff: the DSP is registered, so there are two short paths,
	// not one long one.
	nl := netlist.New("t")
	ff0 := nl.AddCell("ff0", netlist.FF)
	d := nl.AddCell("d", netlist.DSP)
	ff1 := nl.AddCell("ff1", netlist.FF)
	nl.AddNet("n0", ff0.ID, d.ID)
	nl.AddNet("n1", d.ID, ff1.ID)
	pos := []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}}
	m := DefaultModel()
	res, err := Analyze(nl, pos, Options{ClockPeriodNs: 10})
	if err != nil {
		t.Fatal(err)
	}
	wire := m.WireBase + m.WirePerUnit*50
	wantWorst := 10 - (m.Clk2Q[netlist.DSP] + wire + m.Setup)
	if math.Abs(res.WNS-wantWorst) > 1e-9 {
		t.Fatalf("WNS=%v want %v", res.WNS, wantWorst)
	}
	if len(res.Endpoints) != 2 {
		t.Fatalf("endpoints=%v", res.Endpoints)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	nl := netlist.New("t")
	a := nl.AddCell("a", netlist.LUT)
	b := nl.AddCell("b", netlist.LUT)
	nl.AddNet("n0", a.ID, b.ID)
	nl.AddNet("n1", b.ID, a.ID)
	pos := []geom.Point{{}, {}}
	if _, err := Analyze(nl, pos, Options{ClockPeriodNs: 10}); err == nil {
		t.Fatal("combinational cycle accepted")
	}
}

func TestRegisteredFeedbackOK(t *testing.T) {
	// lut → ff → lut (same lut): legal because the FF cuts the loop.
	nl := netlist.New("t")
	lut := nl.AddCell("l", netlist.LUT)
	ff := nl.AddCell("f", netlist.FF)
	nl.AddNet("n0", lut.ID, ff.ID)
	nl.AddNet("n1", ff.ID, lut.ID)
	pos := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
	if _, err := Analyze(nl, pos, Options{ClockPeriodNs: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestNoPathsPositiveWNS(t *testing.T) {
	nl := netlist.New("t")
	nl.AddCell("a", netlist.LUT)
	nl.AddCell("b", netlist.LUT)
	nl.AddNet("n", 0, 1)
	res, err := Analyze(nl, []geom.Point{{}, {}}, Options{ClockPeriodNs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.WNS != 7 || res.TNS != 0 {
		t.Fatalf("WNS=%v TNS=%v", res.WNS, res.TNS)
	}
}

func TestNetCriticality(t *testing.T) {
	nl, pos := ffChain()
	res, err := Analyze(nl, pos, Options{ClockPeriodNs: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	w := NetCriticality(nl, res, 3)
	for ni, v := range w {
		if v < 1 || v > 4 {
			t.Fatalf("weight[%d]=%v out of [1,4]", ni, v)
		}
	}
	// Both nets lie on the single (critical) path → near-max weights.
	if w[0] < 1.5 || w[1] < 1.5 {
		t.Fatalf("critical nets under-weighted: %v", w)
	}
	// At a relaxed period criticality must drop.
	res2, _ := Analyze(nl, pos, Options{ClockPeriodNs: 100})
	w2 := NetCriticality(nl, res2, 3)
	if !(w2[0] < w[0]) {
		t.Fatalf("relaxed clock did not lower criticality: %v vs %v", w2[0], w[0])
	}
}

func TestErrors(t *testing.T) {
	nl, pos := ffChain()
	if _, err := Analyze(nl, pos, Options{}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := Analyze(nl, pos[:2], Options{ClockPeriodNs: 1}); err == nil {
		t.Fatal("bad positions accepted")
	}
}

func TestTopPaths(t *testing.T) {
	// Two endpoints with different slacks: a long path and a short one.
	nl := netlist.New("tp")
	ff0 := nl.AddCell("ff0", netlist.FF)
	lut := nl.AddCell("lut", netlist.LUT)
	far := nl.AddCell("far", netlist.FF)
	near := nl.AddCell("near", netlist.FF)
	nl.AddNet("n0", ff0.ID, lut.ID)
	nl.AddNet("n1", lut.ID, far.ID)
	nl.AddNet("n2", ff0.ID, near.ID)
	pos := []geom.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 80, Y: 0}, {X: 1, Y: 0}}
	res, err := Analyze(nl, pos, Options{ClockPeriodNs: 5})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.TopPaths(10)
	if len(paths) != 2 {
		t.Fatalf("paths=%d", len(paths))
	}
	if paths[0].Endpoint != far.ID || paths[1].Endpoint != near.ID {
		t.Fatalf("order wrong: %+v", paths)
	}
	if !(paths[0].Slack < paths[1].Slack) {
		t.Fatal("slack order wrong")
	}
	// The worst path must be ff0 → lut → far.
	want := []int{ff0.ID, lut.ID, far.ID}
	if len(paths[0].Cells) != 3 {
		t.Fatalf("cells=%v", paths[0].Cells)
	}
	for i, c := range want {
		if paths[0].Cells[i] != c {
			t.Fatalf("path=%v want %v", paths[0].Cells, want)
		}
	}
	// Consistency with WorstPath.
	if res.WorstPath[0] != paths[0].Cells[0] || res.WorstPath[2] != paths[0].Cells[2] {
		t.Fatal("WorstPath disagrees with TopPaths[0]")
	}
	// k clamp.
	if got := res.TopPaths(1); len(got) != 1 {
		t.Fatalf("k=1 returned %d", len(got))
	}
}

// Analyze is a pure function of its inputs: the TNS sum, the Endpoints
// order and the worst path come out bit-identical on every run, also when
// two endpoints tie on WNS (the lower cell id wins).
func TestAnalyzeRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := netlist.New("repeat")
	var pos []geom.Point
	add := func(typ netlist.CellType, p geom.Point) int {
		pos = append(pos, p)
		return nl.AddCell("c", typ).ID
	}
	// hop adds one register → LUT → register path of the given length and
	// returns its capture register.
	hop := func(length float64) int {
		y := rng.Float64() * 100
		a := add(netlist.FF, geom.Point{X: 0, Y: y})
		l := add(netlist.LUT, geom.Point{X: length / 2, Y: y})
		b := add(netlist.FF, geom.Point{X: length, Y: y})
		nl.AddNet("a", a, l)
		nl.AddNet("b", l, b)
		return b
	}
	for i := 0; i < 200; i++ {
		hop(rng.Float64() * 40)
	}
	tieA, tieB := hop(80), hop(80)

	ref, err := Analyze(nl, pos, Options{ClockPeriodNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Endpoints) != 202 || ref.TNS >= 0 {
		t.Fatalf("fixture: %d endpoints, TNS %v", len(ref.Endpoints), ref.TNS)
	}
	for i := 1; i < len(ref.Endpoints); i++ {
		if ref.Endpoints[i-1].Cell >= ref.Endpoints[i].Cell {
			t.Fatalf("endpoints not in cell order at %d: %v", i, ref.Endpoints[i-1:i+1])
		}
	}
	if end := ref.WorstPath[len(ref.WorstPath)-1]; end != tieA {
		t.Fatalf("worst path ends at %d, want the lower tied endpoint %d (not %d)", end, tieA, tieB)
	}
	for i := 0; i < 20; i++ {
		res, err := Analyze(nl, pos, Options{ClockPeriodNs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.TNS) != math.Float64bits(ref.TNS) {
			t.Fatalf("repeat %d: TNS %v, first run %v", i, res.TNS, ref.TNS)
		}
		if !reflect.DeepEqual(res.Endpoints, ref.Endpoints) {
			t.Fatalf("repeat %d: Endpoints order changed", i)
		}
		if !reflect.DeepEqual(res.WorstPath, ref.WorstPath) {
			t.Fatalf("repeat %d: worst path %v, first run %v", i, res.WorstPath, ref.WorstPath)
		}
	}
}
