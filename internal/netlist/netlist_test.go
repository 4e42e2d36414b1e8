package netlist

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dsplacer/internal/geom"
)

// tiny builds a 6-cell design: PS port → LUT → DSP cascade (2) → FF → IO,
// with a control FF feeding back.
func tiny() *Netlist {
	nl := New("tiny")
	ps := nl.AddFixedCell("ps0", PSPort, geom.Point{X: 0, Y: 5})
	lut := nl.AddCell("lut0", LUT)
	d0 := nl.AddCell("dsp0", DSP)
	d1 := nl.AddCell("dsp1", DSP)
	ff := nl.AddCell("ff0", FF)
	io := nl.AddFixedCell("io0", IO, geom.Point{X: 30, Y: 0})
	nl.AddNet("n0", ps.ID, lut.ID)
	nl.AddNet("n1", lut.ID, d0.ID)
	nl.AddNet("n2", d0.ID, d1.ID)
	nl.AddNet("n3", d1.ID, ff.ID)
	nl.AddNet("n4", ff.ID, io.ID)
	nl.AddMacro([]int{d0.ID, d1.ID})
	d0.DatapathTruth = true
	d1.DatapathTruth = true
	return nl
}

func TestBuildAndStats(t *testing.T) {
	nl := tiny()
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	s := nl.Stats()
	if s.LUT != 1 || s.FF != 1 || s.DSP != 2 || s.IO != 1 || s.PSPort != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Nets != 5 || s.Macros != 1 {
		t.Fatalf("stats %+v", s)
	}
	if got := nl.CellsOfType(DSP); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("CellsOfType(DSP)=%v", got)
	}
}

func TestCellTypeRoundTrip(t *testing.T) {
	for ct := LUT; ct < numCellTypes; ct++ {
		got, err := ParseCellType(ct.String())
		if err != nil || got != ct {
			t.Fatalf("round trip %v failed: %v %v", ct, got, err)
		}
	}
	if _, err := ParseCellType("BOGUS"); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

func TestToGraph(t *testing.T) {
	nl := tiny()
	g := nl.ToGraph()
	if g.N() != 6 {
		t.Fatalf("N=%d", g.N())
	}
	if !slices.Contains(g.Out(2), 3) { // dsp0 → dsp1
		t.Fatal("missing cascade edge")
	}
	if slices.Contains(g.Out(3), 2) {
		t.Fatal("unexpected reverse edge")
	}
	// Duplicate (driver,sink) pairs must be deduplicated.
	nl.AddNet("dup", 2, 3)
	g2 := nl.ToGraph()
	if g2.M() != g.M() {
		t.Fatalf("duplicate edge not deduplicated: %d vs %d", g2.M(), g.M())
	}
}

func TestCascadePairs(t *testing.T) {
	nl := New("m")
	var ids []int
	for i := 0; i < 4; i++ {
		ids = append(ids, nl.AddCell("d", DSP).ID)
	}
	nl.AddMacro(ids[:3])
	got := nl.CascadePairs()
	want := [][2]int{{0, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs=%v want %v", got, want)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Out-of-range sink.
	nl := New("bad")
	c := nl.AddCell("a", LUT)
	nl.AddNet("n", c.ID, 99)
	if nl.Validate() == nil {
		t.Fatal("out-of-range sink accepted")
	}

	// Macro containing a non-DSP.
	nl2 := New("bad2")
	a := nl2.AddCell("a", LUT)
	b := nl2.AddCell("b", DSP)
	nl2.AddMacro([]int{a.ID, b.ID})
	if nl2.Validate() == nil {
		t.Fatal("non-DSP macro member accepted")
	}

	// Net without sinks.
	nl3 := New("bad3")
	x := nl3.AddCell("x", FF)
	nl3.Nets = append(nl3.Nets, &Net{ID: 0, Name: "empty", Driver: x.ID, Weight: 1})
	if nl3.Validate() == nil {
		t.Fatal("sinkless net accepted")
	}

	// Non-positive weight.
	nl4 := New("bad4")
	p := nl4.AddCell("p", FF)
	q := nl4.AddCell("q", FF)
	n := nl4.AddNet("n", p.ID, q.ID)
	n.Weight = 0
	if nl4.Validate() == nil {
		t.Fatal("zero-weight net accepted")
	}

	// Single-cell macro.
	nl5 := New("bad5")
	d := nl5.AddCell("d", DSP)
	nl5.AddMacro([]int{d.ID, d.ID})
	nl5.Macros[0] = nl5.Macros[0][:1]
	if nl5.Validate() == nil {
		t.Fatal("1-cell macro accepted")
	}

	// NaN weight: fails every comparison, so a naive <= 0 check passes it.
	nl6 := New("bad6")
	p6 := nl6.AddCell("p", FF)
	q6 := nl6.AddCell("q", FF)
	nl6.AddNet("n", p6.ID, q6.ID).Weight = math.NaN()
	if nl6.Validate() == nil {
		t.Fatal("NaN-weight net accepted")
	}

	// Self-loop net (driver listed among its own sinks).
	nl7 := New("bad7")
	p7 := nl7.AddCell("p", FF)
	q7 := nl7.AddCell("q", FF)
	nl7.AddNet("n", p7.ID, q7.ID, p7.ID)
	if nl7.Validate() == nil {
		t.Fatal("self-loop net accepted")
	}

	// Fixed cell of a site-bound type.
	nl8 := New("bad8")
	l8 := nl8.AddCell("l", LUT)
	l8.Fixed = true
	f8 := nl8.AddCell("f", FF)
	nl8.AddNet("n", l8.ID, f8.ID)
	if nl8.Validate() == nil {
		t.Fatal("fixed LUT accepted")
	}
}

// TestUnmarshalRejectsOutOfRangeMacro is the regression test for the macro
// back-reference stamping panic: a document whose macro names a cell id
// outside the cell list must produce an error, not an index panic.
func TestUnmarshalRejectsOutOfRangeMacro(t *testing.T) {
	docs := []string{
		`{"name":"x","cells":[{"name":"a","type":"DSP"},{"name":"b","type":"DSP"}],` +
			`"nets":[{"name":"n","driver":0,"sinks":[1]}],"macros":[[0,7]]}`,
		`{"name":"x","cells":[{"name":"a","type":"DSP"},{"name":"b","type":"DSP"}],` +
			`"nets":[{"name":"n","driver":0,"sinks":[1]}],"macros":[[-1,0]]}`,
	}
	for _, doc := range docs {
		nl := &Netlist{}
		if err := nl.UnmarshalJSON([]byte(doc)); err == nil {
			t.Fatalf("out-of-range macro accepted: %s", doc)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	nl := tiny()
	nl.Nets[1].Weight = 2.5
	data, err := json.Marshal(nl)
	if err != nil {
		t.Fatal(err)
	}
	var back Netlist
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != nl.Name || back.NumCells() != nl.NumCells() || back.NumNets() != nl.NumNets() {
		t.Fatal("shape mismatch after round trip")
	}
	for i, c := range nl.Cells {
		b := back.Cells[i]
		if b.Name != c.Name || b.Type != c.Type || b.Fixed != c.Fixed ||
			b.FixedAt != c.FixedAt || b.DatapathTruth != c.DatapathTruth ||
			b.Macro != c.Macro || b.MacroIdx != c.MacroIdx {
			t.Fatalf("cell %d mismatch: %+v vs %+v", i, b, c)
		}
	}
	for i, n := range nl.Nets {
		b := back.Nets[i]
		if b.Driver != n.Driver || !reflect.DeepEqual(b.Sinks, n.Sinks) || b.Weight != n.Weight {
			t.Fatalf("net %d mismatch", i)
		}
	}
	if !reflect.DeepEqual(back.Macros, nl.Macros) {
		t.Fatal("macros mismatch")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.json")
	nl := tiny()
	if err := nl.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "tiny" || back.NumCells() != 6 {
		t.Fatalf("loaded %q with %d cells", back.Name, back.NumCells())
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile("/nonexistent/path.json"); err == nil {
		t.Fatal("expected error for missing file")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, []byte(`{"cells":[{"name":"x","type":"WAT"}],"nets":[]}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("expected error for bad cell type")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestNetPins(t *testing.T) {
	n := &Net{Driver: 7, Sinks: []int{1, 2}}
	if got := n.Pins(); !reflect.DeepEqual(got, []int{7, 1, 2}) {
		t.Fatalf("pins=%v", got)
	}
}
