// Package metrics computes the placement quality numbers the flows and
// experiments report: half-perimeter wirelength (HPWL, Table II), cascade
// alignment and the datapath's distance from the PS corner (Fig. 9).
package metrics

import (
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// HPWL returns the total weighted half-perimeter wirelength of nl under the
// given cell positions.
func HPWL(nl *netlist.Netlist, pos []geom.Point) float64 {
	total := 0.0
	for _, n := range nl.Nets {
		total += n.Weight * NetHPWL(n, pos)
	}
	return total
}

// HPWLUnit returns the total HPWL of nl with every net weight treated as 1.
// It is the one shared definition of the unit-weight wirelength that flows
// and placers report, so timing-reweighted runs stay comparable.
func HPWLUnit(nl *netlist.Netlist, pos []geom.Point) float64 {
	total := 0.0
	for _, n := range nl.Nets {
		total += NetHPWL(n, pos)
	}
	return total
}

// NetHPWL returns the (unweighted) half-perimeter of one net.
func NetHPWL(n *netlist.Net, pos []geom.Point) float64 {
	r := geom.EmptyRect()
	r = r.Expand(pos[n.Driver])
	for _, s := range n.Sinks {
		r = r.Expand(pos[s])
	}
	return r.HalfPerimeter()
}
