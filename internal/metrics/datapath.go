package metrics

import (
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// CascadeAlignment reports the fraction of the netlist's cascade pairs
// whose two DSPs landed on consecutive rows of one DSP column — the hard
// constraint (5) the legalizer enforces, expressed as a [0,1] quality
// metric. Pairs with either end unassigned are counted as misaligned (the
// flow is expected to site every cascade member); a netlist with no
// cascade pairs is vacuously aligned. The golden-QoR harness freezes this
// value per (device, family) so a legalization regression on any fabric
// shows up as drift, not just as a worse HPWL.
func CascadeAlignment(dev *fpga.Device, nl *netlist.Netlist, siteOf map[int]int) float64 {
	pairs := nl.CascadePairs()
	if len(pairs) == 0 {
		return 1
	}
	sites := dev.DSPSites()
	aligned := 0
	for _, pair := range pairs {
		jp, okP := siteOf[pair[0]]
		js, okS := siteOf[pair[1]]
		if !okP || !okS || jp < 0 || jp >= len(sites) || js < 0 || js >= len(sites) {
			continue
		}
		sp, ss := sites[jp], sites[js]
		if sp.Col == ss.Col && ss.Row == sp.Row+1 {
			aligned++
		}
	}
	return float64(aligned) / float64(len(pairs))
}

// DatapathPSDistance is Fig. 9's quantitative companion: the mean Manhattan
// distance of the datapath DSPs from the PS corner. DSPlacer's λ term pulls
// the datapath toward the PS corner where its buses terminate; layouts that
// ignore the PS (AMF's centroid packing, Vivado's displacement-only
// legalization) land farther out.
func DatapathPSDistance(dev *fpga.Device, cells []int, pos []geom.Point) float64 {
	if len(cells) == 0 {
		return 0
	}
	corner := dev.PSCorner()
	sum := 0.0
	for _, c := range cells {
		sum += pos[c].Manhattan(corner)
	}
	return sum / float64(len(cells))
}
