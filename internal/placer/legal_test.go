package placer

// This file keeps the sort-based Tetris sweep that the outward column walk
// replaced, as an executable reference: both must leave every cell at the
// same bits and fail on the same cell.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// legacyTetris assigns every movable cell of the class to the nearest site of the
// resource with remaining capacity, processing cells in x order (the
// classic Tetris legalizer sweep).
func legacyTetris(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, res fpga.Resource, class func(netlist.CellType) bool) error {
	cols := dev.ColumnsOf(res)
	if len(cols) == 0 {
		return fmt.Errorf("placer: no %v columns on device", res)
	}
	type colState struct {
		x      float64
		pitch  float64
		remain []int // remaining capacity per row
	}
	states := make([]*colState, len(cols))
	for k, ci := range cols {
		c := &dev.Columns[ci]
		st := &colState{x: c.X, pitch: c.YPitch, remain: make([]int, c.NumSites)}
		for r := range st.remain {
			st.remain[r] = c.Capacity
		}
		states[k] = st
	}

	var ids []int
	for i, c := range nl.Cells {
		if !c.Fixed && class(c.Type) {
			ids = append(ids, i)
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if pos[ids[a]].X != pos[ids[b]].X {
			return pos[ids[a]].X < pos[ids[b]].X
		}
		return ids[a] < ids[b]
	})

	for _, id := range ids {
		p := pos[id]
		// Candidate columns ordered by |Δx|.
		order := make([]int, len(states))
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool {
			da := abs(states[order[a]].x - p.X)
			db := abs(states[order[b]].x - p.X)
			if da != db {
				return da < db
			}
			return order[a] < order[b]
		})
		placed := false
		bestCost := 1e18
		bestCol, bestRow := -1, -1
		for _, k := range order {
			st := states[k]
			dx := abs(st.x - p.X)
			if dx >= bestCost {
				break // columns are sorted by dx; no better candidate left
			}
			want := int(p.Y / st.pitch)
			if r := nearestFreeRow(st.remain, want); r >= 0 {
				dy := abs(float64(r)*st.pitch - p.Y)
				if dx+dy < bestCost {
					bestCost = dx + dy
					bestCol, bestRow = k, r
				}
			}
		}
		if bestCol >= 0 {
			st := states[bestCol]
			st.remain[bestRow]--
			pos[id] = geom.Point{X: st.x, Y: float64(bestRow) * st.pitch}
			placed = true
		}
		if !placed {
			return fmt.Errorf("placer: out of %v capacity while legalizing cell %d", res, id)
		}
	}
	return nil
}

// tetrisCase places cells of the class of res at the positions the walk
// must order like the sort: left of the first column, right of the last,
// exactly on every column and exactly halfway between neighbours, so far
// out that |Δx| rounds to one value for several columns on one side, at
// rows on and off the grid and outside the fabric, plus one dense cluster
// on a midpoint that spills over many columns.
func tetrisCase(dev *fpga.Device, res fpga.Resource, cluster int, seed int64) (*netlist.Netlist, []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	typ := netlist.LUT
	if res == fpga.BRAMRes {
		typ = netlist.BRAM
	}
	cols := dev.ColumnsOf(res)
	first, last := dev.Columns[cols[0]], dev.Columns[cols[len(cols)-1]]
	xs := []float64{first.X - 3, last.X + 2, -1e17, 1e17}
	for k, ci := range cols {
		xs = append(xs, dev.Columns[ci].X)
		if k+1 < len(cols) {
			xs = append(xs, (dev.Columns[ci].X+dev.Columns[cols[k+1]].X)/2)
		}
	}
	nl := netlist.New("tetris")
	var pos []geom.Point
	add := func(at geom.Point) {
		nl.AddCell("c", typ)
		pos = append(pos, at)
	}
	ioAt := geom.Point{X: xs[0], Y: 1}
	nl.AddFixedCell("io", netlist.IO, ioAt)
	pos = append(pos, ioAt)
	for _, x := range xs {
		for m := rng.Intn(4); m >= 0; m-- {
			var y float64
			switch rng.Intn(4) {
			case 0:
				y = float64(rng.Intn(first.NumSites)) * first.YPitch // on a row
			case 1:
				y = -2 // below the fabric
			case 2:
				y = dev.Height + 3 // above it
			default:
				y = rng.Float64() * dev.Height
			}
			add(geom.Point{X: x, Y: y})
		}
	}
	for m := 0; m < cluster; m++ {
		add(geom.Point{X: xs[5], Y: dev.Height / 2})
	}
	return nl, pos
}

func tetrisBoth(t *testing.T, dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, res fpga.Resource) error {
	t.Helper()
	class := clbClass
	if res == fpga.BRAMRes {
		class = func(c netlist.CellType) bool { return c == netlist.BRAM }
	}
	want := append([]geom.Point(nil), pos...)
	got := append([]geom.Point(nil), pos...)
	wantErr := legacyTetris(dev, nl, want, res, class)
	gotErr := tetris(dev, nl, got, res, class)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	for i := range want {
		if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) || math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			t.Fatalf("cell %d at %v, reference %v", i, got[i], want[i])
		}
	}
	return gotErr
}

func TestTetrisMatchesReference(t *testing.T) {
	for _, name := range fpga.Names() {
		dev := fpga.MustDevice(name)
		for _, res := range []fpga.Resource{fpga.CLB, fpga.BRAMRes} {
			t.Run(name+"/"+res.String(), func(t *testing.T) {
				cluster := 300
				if res == fpga.BRAMRes {
					cluster = 30
				}
				for seed := int64(1); seed <= 5; seed++ {
					nl, pos := tetrisCase(dev, res, cluster, seed)
					if err := tetrisBoth(t, dev, nl, pos, res); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

func TestTetrisOutOfCapacityMatchesReference(t *testing.T) {
	dev := fpga.MustDevice("pynq-z2")
	sites := 0
	for _, ci := range dev.ColumnsOf(fpga.BRAMRes) {
		sites += dev.Columns[ci].NumSites * dev.Columns[ci].Capacity
	}
	nl, pos := tetrisCase(dev, fpga.BRAMRes, sites, 1)
	if err := tetrisBoth(t, dev, nl, pos, fpga.BRAMRes); err == nil {
		t.Fatal("no error with more BRAMs than sites")
	}
}

func TestTetrisNaNPositionFails(t *testing.T) {
	dev := fpga.MustDevice("pynq-z2")
	nl, pos := tetrisCase(dev, fpga.CLB, 0, 1)
	pos[len(pos)-1].X = math.NaN()
	if err := tetrisBoth(t, dev, nl, pos, fpga.CLB); err == nil {
		t.Fatal("a NaN position was legalized")
	}
}
