// Package route is a congestion-aware global router over a uniform routing
// grid: every net is decomposed into two-pin connections (nearest-connected
// Prim order), each routed as the cheaper of the two L-shapes — or a Z-shape
// when both Ls are congested — against history-weighted edge costs, with a
// bounded number of rip-up-and-reroute rounds. It supplies the routed
// wirelength of Table II and the per-net congestion factors the STA uses
// for post-route delays.
package route

import (
	"math"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// Options tunes the router.
type Options struct {
	// BinSize is the routing grid pitch in fabric units (default 4).
	BinSize float64
	// Capacity is the per-grid-edge track capacity (default 256, roughly
	// the interconnect tracks crossing a 4-unit UltraScale+ bin boundary).
	Capacity int
	// RipupRounds bounds rip-up-and-reroute passes (default 2).
	RipupRounds int
}

func (o Options) withDefaults() Options {
	if o.BinSize == 0 {
		o.BinSize = 4
	}
	if o.Capacity == 0 {
		o.Capacity = 256
	}
	if o.RipupRounds == 0 {
		o.RipupRounds = 2
	}
	return o
}

// Result summarizes a routing run.
type Result struct {
	// Wirelength is the total routed length in fabric units.
	Wirelength float64
	// NetLength is the routed length per net.
	NetLength []float64
	// NetCongestion is each net's mean edge utilization (1.0 = at
	// capacity); the STA scales net delays by max(1, this).
	NetCongestion []float64
	// OverflowEdges counts grid edges above capacity after the final round.
	OverflowEdges int
	// MaxUtilization is the worst edge utilization.
	MaxUtilization float64
	// GridNX/GridNY and HUtil/VUtil expose per-edge utilization for
	// congestion heatmaps (indexed [y*GridNX+x]).
	GridNX, GridNY int
	HUtil, VUtil   []float64
}

// grid holds horizontal and vertical edge usage. hUse[y][x] is the edge
// from bin (x,y) to (x+1,y); vUse[y][x] from (x,y) to (x,y+1).
type grid struct {
	nx, ny int
	bin    float64
	cap    float64
	hUse   []int
	vUse   []int
	hHist  []float64
	vHist  []float64
}

func newGrid(w, h, bin float64, cap int) *grid {
	nx := int(math.Ceil(w/bin)) + 1
	ny := int(math.Ceil(h/bin)) + 1
	return &grid{
		nx: nx, ny: ny, bin: bin, cap: float64(cap),
		hUse: make([]int, nx*ny), vUse: make([]int, nx*ny),
		hHist: make([]float64, nx*ny), vHist: make([]float64, nx*ny),
	}
}

func (g *grid) binOf(p geom.Point) (int, int) {
	x := int(p.X / g.bin)
	y := int(p.Y / g.bin)
	if x < 0 {
		x = 0
	}
	if x >= g.nx {
		x = g.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.ny {
		y = g.ny - 1
	}
	return x, y
}

// edgeCost is the congestion-aware cost of one more track on an edge.
func (g *grid) edgeCost(use int, hist float64) float64 {
	u := (float64(use) + 1) / g.cap
	c := 1.0 + hist
	if u > 1 {
		c += 8 * (u - 1) * (u - 1) * g.cap // quadratic overflow penalty
	} else if u > 0.7 {
		c += (u - 0.7) * 2
	}
	return c
}

// segment is one horizontal or vertical run of grid edges.
type segment struct {
	x0, y0 int
	horiz  bool
	len    int // number of edges; negative length is normalized away
}

// pathSegments enumerates the edges of a set of segments, calling fn with
// each (index-into-hUse-or-vUse, isHorizontal).
func (g *grid) walk(segs []segment, fn func(idx int, horiz bool)) {
	for _, s := range segs {
		x, y, l := s.x0, s.y0, s.len
		if l < 0 {
			l = -l
			if s.horiz {
				x -= l
			} else {
				y -= l
			}
		}
		for k := 0; k < l; k++ {
			if s.horiz {
				fn((y*g.nx)+(x+k), true)
			} else {
				fn(((y+k)*g.nx)+x, false)
			}
		}
	}
}

// lShape returns the two L candidate segment lists between bins a and b.
func lShape(a, b [2]int) [][]segment {
	dx := b[0] - a[0]
	dy := b[1] - a[1]
	mk := func(viaX, viaY int) []segment {
		var segs []segment
		if dx != 0 {
			segs = append(segs, segment{x0: min(a[0], b[0]), y0: viaY, horiz: true, len: absI(dx)})
		}
		if dy != 0 {
			segs = append(segs, segment{x0: viaX, y0: min(a[1], b[1]), horiz: false, len: absI(dy)})
		}
		return segs
	}
	// L1: horizontal at a.y then vertical at b.x; L2: vertical at a.x then
	// horizontal at b.y.
	return [][]segment{mk(b[0], a[1]), mk(a[0], b[1])}
}

// zShapes returns a few Z candidates (one intermediate bend) between a and b.
func zShapes(a, b [2]int) [][]segment {
	var out [][]segment
	dx, dy := b[0]-a[0], b[1]-a[1]
	if dx == 0 || dy == 0 {
		return out
	}
	// Horizontal-vertical-horizontal with the via column at 1/3 and 2/3.
	for _, f := range []float64{1.0 / 3, 2.0 / 3} {
		vx := a[0] + int(math.Round(float64(dx)*f))
		if vx == a[0] || vx == b[0] {
			continue
		}
		segs := []segment{
			{x0: min(a[0], vx), y0: a[1], horiz: true, len: absI(vx - a[0])},
			{x0: vx, y0: min(a[1], b[1]), horiz: false, len: absI(dy)},
			{x0: min(vx, b[0]), y0: b[1], horiz: true, len: absI(b[0] - vx)},
		}
		out = append(out, segs)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func absI(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Route routes every net of nl at the given positions.
func Route(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, opt Options) *Result {
	opt = opt.withDefaults()
	g := newGrid(dev.Width, dev.Height, opt.BinSize, opt.Capacity)

	type conn struct {
		net  int
		a, b [2]int
		segs []segment
	}
	var conns []conn

	// Two-pin decomposition: connect each sink to the nearest
	// already-connected pin (Prim-style star-tree hybrid).
	for ni, n := range nl.Nets {
		pins := n.Pins()
		if len(pins) < 2 {
			continue
		}
		if len(pins) > 64 {
			// High-fanout nets route as a star from the driver; a full
			// Prim decomposition would be quadratic in fanout.
			ax, ay := g.binOf(pos[pins[0]])
			for _, s := range pins[1:] {
				bx, by := g.binOf(pos[s])
				if ax == bx && ay == by {
					continue
				}
				conns = append(conns, conn{net: ni, a: [2]int{ax, ay}, b: [2]int{bx, by}})
			}
			continue
		}
		connected := []int{pins[0]}
		remaining := pins[1:]
		for len(remaining) > 0 {
			bi, bj, bd := -1, -1, math.Inf(1)
			for i, r := range remaining {
				for j, c := range connected {
					if d := pos[r].Manhattan(pos[c]); d < bd {
						bd = d
						bi, bj = i, j
					}
				}
			}
			r := remaining[bi]
			c := connected[bj]
			remaining = append(remaining[:bi], remaining[bi+1:]...)
			connected = append(connected, r)
			ax, ay := g.binOf(pos[c])
			bx, by := g.binOf(pos[r])
			if ax == bx && ay == by {
				continue
			}
			conns = append(conns, conn{net: ni, a: [2]int{ax, ay}, b: [2]int{bx, by}})
		}
	}

	routeConn := func(c *conn, maze bool) {
		cands := lShape(c.a, c.b)
		cands = append(cands, zShapes(c.a, c.b)...)
		if maze {
			// Escape route for rip-up rounds: a congestion-aware Dijkstra
			// can detour around hot spots that every L/Z pattern crosses.
			if segs := g.mazeRoute(c.a, c.b, 8); segs != nil {
				cands = append(cands, segs)
			}
		}
		best := -1
		bestCost := math.Inf(1)
		for k, segs := range cands {
			cost := 0.0
			g.walk(segs, func(idx int, horiz bool) {
				if horiz {
					cost += g.edgeCost(g.hUse[idx], g.hHist[idx])
				} else {
					cost += g.edgeCost(g.vUse[idx], g.vHist[idx])
				}
			})
			if cost < bestCost {
				bestCost = cost
				best = k
			}
		}
		c.segs = cands[best]
		g.walk(c.segs, func(idx int, horiz bool) {
			if horiz {
				g.hUse[idx]++
			} else {
				g.vUse[idx]++
			}
		})
	}
	unroute := func(c *conn) {
		g.walk(c.segs, func(idx int, horiz bool) {
			if horiz {
				g.hUse[idx]--
			} else {
				g.vUse[idx]--
			}
		})
		c.segs = nil
	}

	for i := range conns {
		routeConn(&conns[i], false)
	}

	// Rip-up and reroute connections crossing overflowed edges.
	for round := 0; round < opt.RipupRounds; round++ {
		overH := map[int]bool{}
		overV := map[int]bool{}
		for i, u := range g.hUse {
			if float64(u) > g.cap {
				overH[i] = true
				g.hHist[i] += 1
			}
		}
		for i, u := range g.vUse {
			if float64(u) > g.cap {
				overV[i] = true
				g.vHist[i] += 1
			}
		}
		if len(overH)+len(overV) == 0 {
			break
		}
		for i := range conns {
			c := &conns[i]
			bad := false
			g.walk(c.segs, func(idx int, horiz bool) {
				if (horiz && overH[idx]) || (!horiz && overV[idx]) {
					bad = true
				}
			})
			if bad {
				unroute(c)
				routeConn(c, true)
			}
		}
	}

	res := &Result{
		NetLength:     make([]float64, len(nl.Nets)),
		NetCongestion: make([]float64, len(nl.Nets)),
	}
	edgeCount := make([]int, len(nl.Nets))
	for i := range conns {
		c := &conns[i]
		g.walk(c.segs, func(idx int, horiz bool) {
			res.NetLength[c.net] += g.bin
			var u float64
			if horiz {
				u = float64(g.hUse[idx]) / g.cap
			} else {
				u = float64(g.vUse[idx]) / g.cap
			}
			res.NetCongestion[c.net] += u
			edgeCount[c.net]++
		})
	}
	for ni := range res.NetCongestion {
		if edgeCount[ni] > 0 {
			res.NetCongestion[ni] /= float64(edgeCount[ni])
		}
		res.Wirelength += res.NetLength[ni]
	}
	for _, u := range g.hUse {
		util := float64(u) / g.cap
		if util > res.MaxUtilization {
			res.MaxUtilization = util
		}
		if util > 1 {
			res.OverflowEdges++
		}
	}
	for _, u := range g.vUse {
		util := float64(u) / g.cap
		if util > res.MaxUtilization {
			res.MaxUtilization = util
		}
		if util > 1 {
			res.OverflowEdges++
		}
	}
	res.GridNX, res.GridNY = g.nx, g.ny
	res.HUtil = make([]float64, len(g.hUse))
	res.VUtil = make([]float64, len(g.vUse))
	for i, u := range g.hUse {
		res.HUtil[i] = float64(u) / g.cap
	}
	for i, u := range g.vUse {
		res.VUtil[i] = float64(u) / g.cap
	}
	return res
}
