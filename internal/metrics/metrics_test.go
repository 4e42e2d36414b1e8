package metrics

import (
	"testing"

	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

func TestHPWL(t *testing.T) {
	nl := netlist.New("t")
	a := nl.AddCell("a", netlist.LUT)
	b := nl.AddCell("b", netlist.LUT)
	c := nl.AddCell("c", netlist.FF)
	n := nl.AddNet("n", a.ID, b.ID, c.ID)
	pos := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 1}, {X: 1, Y: 4}}
	if got := NetHPWL(n, pos); got != 7 {
		t.Fatalf("NetHPWL=%v", got)
	}
	if got := HPWL(nl, pos); got != 7 {
		t.Fatalf("HPWL=%v", got)
	}
	n.Weight = 2
	if got := HPWL(nl, pos); got != 14 {
		t.Fatalf("weighted HPWL=%v", got)
	}
}
