// Package placer is the off-the-shelf FPGA placement engine the paper's
// flow plugs into (and compares against): a Nesterov electrostatic
// analytical global placer of the ePlace/RePlAce family (WA wirelength,
// multigrid density, dataflow attraction; nesterov.go), seeded on a cold
// start by one bound-to-bound quadratic wirelength solve, followed by
// resource-aware legalization onto the column-heterogeneous fabric.
//
// Three modes reproduce the three tools of Table II:
//
//   - ModeVivado — displacement-minimizing DSP legalization on top of the
//     analytical solution; cascade constraints honored, no datapath bias.
//     Plays the role of Xilinx Vivado 2020.2.
//   - ModeAMF — macro-packing DSP handling: cascades are packed compactly
//     column-by-column but without preserving PS↔PL datapath structure,
//     reproducing AMF-Placer 2.0's behaviour observed in the paper.
//   - ModeDSPlacer — datapath DSP sites arrive as hard constraints (from
//     the assign+legalize pipeline); the placer only places the remaining
//     components around them, which is exactly the incremental loop role
//     of the off-the-shelf tool in Fig. 6.
package placer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dsplacer/internal/detailed"
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/metrics"
	"dsplacer/internal/netlist"
	"dsplacer/internal/stage"
)

// Mode selects the DSP-handling personality of the placer.
type Mode int

const (
	ModeVivado Mode = iota
	ModeAMF
	ModeDSPlacer
)

func (m Mode) String() string {
	switch m {
	case ModeVivado:
		return "vivado"
	case ModeAMF:
		return "amf"
	case ModeDSPlacer:
		return "dsplacer"
	}
	return "?"
}

// Options configures a placement run.
type Options struct {
	Mode Mode
	Seed int64
	// GPIterations is the base of the global-placement schedule: a cold
	// run gets 6×GPIterations Nesterov iterations, a warm run half of that
	// (default 8).
	GPIterations int
	// Stages receives the run's per-phase timings (placer.gradient,
	// placer.density, placer.global, placer.legalize). nil records into the
	// process-wide default recorder.
	Stages *stage.Recorder
	// FixedSites pins DSP cells to device DSP site indices (ModeDSPlacer:
	// the datapath DSP result). These cells are immovable.
	FixedSites map[int]int
	// Warm optionally provides starting positions for movable cells
	// (incremental placement); when nil, cells start near the fixed-cell
	// centroid with seeded jitter.
	Warm []geom.Point
	// DetailedPasses enables post-legalization detailed placement (window
	// moves/swaps of CLB-class cells); 0 disables it. DSP and BRAM sites
	// are never touched, so DSPlacer's datapath result is preserved.
	DetailedPasses int
}

func (o Options) withDefaults() Options {
	if o.GPIterations == 0 {
		o.GPIterations = 8
	}
	return o
}

// Result is a complete legal placement.
type Result struct {
	// Pos is the legal position of every cell.
	Pos []geom.Point
	// SiteOfDSP maps every DSP cell to its device DSP site index.
	SiteOfDSP map[int]int
	// HPWL of the legal placement (unit net weights).
	HPWL float64
	// Runtime decomposes into global placement and legalization.
	GPTime, LegalTime time.Duration
}

// Place runs global placement + legalization and returns a legal result.
func Place(dev *fpga.Device, nl *netlist.Netlist, opt Options) (*Result, error) {
	return PlaceContext(context.Background(), dev, nl, opt)
}

// PlaceContext is Place with cancellation: ctx is consulted every Nesterov
// iteration, so a canceled job aborts mid-placement rather than at the next
// stage boundary. The returned error keeps the context's error in its chain
// for errors.Is.
func PlaceContext(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := validateOptions(dev, nl, opt); err != nil {
		return nil, err
	}

	t0 := time.Now()
	pos, err := globalPlace(ctx, dev, nl, opt)
	if err != nil {
		return nil, err
	}
	gpTime := time.Since(t0)
	opt.Stages.Add("placer.global", gpTime)

	t1 := time.Now()
	siteOfDSP, err := legalizeAll(dev, nl, pos, opt)
	if err != nil {
		return nil, err
	}
	if opt.DetailedPasses > 0 {
		detailed.Refine(dev, nl, pos, detailed.Options{
			Passes: opt.DetailedPasses, Seed: opt.Seed,
		})
	}
	legalTime := time.Since(t1)
	opt.Stages.Add("placer.legalize", legalTime)

	return &Result{
		Pos:       pos,
		SiteOfDSP: siteOfDSP,
		HPWL:      metrics.HPWLUnit(nl, pos),
		GPTime:    gpTime,
		LegalTime: legalTime,
	}, nil
}

// GlobalPlace runs only the analytical global-placement phase and returns
// the pre-legalization positions — the surface the engine benchmarks time;
// PlaceContext feeds the identical positions into legalization.
func GlobalPlace(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, opt Options) ([]geom.Point, error) {
	opt = opt.withDefaults()
	if err := validateOptions(dev, nl, opt); err != nil {
		return nil, err
	}
	return globalPlace(ctx, dev, nl, opt)
}

func validateOptions(dev *fpga.Device, nl *netlist.Netlist, opt Options) error {
	if err := nl.Validate(); err != nil {
		return err
	}
	n := nl.NumCells()
	sites := dev.DSPSites()
	for c, j := range opt.FixedSites {
		if c < 0 || c >= n || nl.Cells[c].Type != netlist.DSP {
			return fmt.Errorf("placer: FixedSites cell %d invalid", c)
		}
		if j < 0 || j >= len(sites) {
			return fmt.Errorf("placer: FixedSites site %d invalid", j)
		}
	}
	return nil
}

// globalPlace applies the Mode personality, runs the electrostatic engine
// and returns the analytical positions.
func globalPlace(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, opt Options) ([]geom.Point, error) {
	seedCG := 80
	if opt.Mode == ModeAMF {
		// AMF-Placer 2.0 is tuned for the VCU108; the paper observes its
		// quality degrade on ZCU104. Model the mis-tuning as a shortened
		// effective schedule (its spreading fights the unfamiliar column
		// pattern) plus residual noise injected after GP (its packing/
		// unpacking heuristics miss the device's site map). Its runtime
		// cost shows up in extra CG work in the cold-start seed.
		opt.GPIterations = (opt.GPIterations + 1) / 2
		seedCG *= 5
	}
	pos, movable := initialPositions(dev, nl, opt)
	if err := runElectrostatic(ctx, dev, nl, pos, movable, opt, seedCG); err != nil {
		return nil, err
	}
	if opt.Mode == ModeAMF {
		rng := rand.New(rand.NewSource(opt.Seed + 77))
		for i := range pos {
			if movable[i] {
				pos[i].X = geom.Clamp(pos[i].X+rng.NormFloat64()*dev.Width/24, 0, dev.Width-1e-9)
				pos[i].Y = geom.Clamp(pos[i].Y+rng.NormFloat64()*dev.Height/24, 0, dev.Height-1e-9)
			}
		}
	}
	return pos, nil
}

// initialPositions seeds every movable cell near the centroid of the fixed
// cells (with deterministic jitter) and pins fixed cells.
func initialPositions(dev *fpga.Device, nl *netlist.Netlist, opt Options) ([]geom.Point, []bool) {
	n := nl.NumCells()
	pos := make([]geom.Point, n)
	movable := make([]bool, n)
	var centroid geom.Point
	fixedCount := 0
	sites := dev.DSPSites()
	for i, c := range nl.Cells {
		if c.Fixed {
			pos[i] = c.FixedAt
			centroid = centroid.Add(c.FixedAt)
			fixedCount++
			continue
		}
		if j, ok := opt.FixedSites[i]; ok {
			pos[i] = dev.Loc(sites[j])
			centroid = centroid.Add(pos[i])
			fixedCount++
			continue
		}
		movable[i] = true
	}
	if fixedCount > 0 {
		centroid = centroid.Scale(1 / float64(fixedCount))
	} else {
		centroid = geom.Point{X: dev.Width / 2, Y: dev.Height / 2}
	}
	rng := rand.New(rand.NewSource(opt.Seed + 11))
	for i := range pos {
		if movable[i] {
			if opt.Warm != nil {
				pos[i] = geom.Point{
					X: geom.Clamp(opt.Warm[i].X, 0, dev.Width-1e-9),
					Y: geom.Clamp(opt.Warm[i].Y, 0, dev.Height-1e-9),
				}
				continue
			}
			pos[i] = geom.Point{
				X: geom.Clamp(centroid.X+rng.NormFloat64()*dev.Width/8, 0, dev.Width),
				Y: geom.Clamp(centroid.Y+rng.NormFloat64()*dev.Height/8, 0, dev.Height),
			}
		}
	}
	return pos, movable
}

func clampToDevice(dev *fpga.Device, pos []geom.Point, movable []bool) {
	for i := range pos {
		if movable[i] {
			pos[i].X = geom.Clamp(pos[i].X, 0, dev.Width-1e-9)
			pos[i].Y = geom.Clamp(pos[i].Y, 0, dev.Height-1e-9)
		}
	}
}

// solveQuadratic builds the bound-to-bound system for each axis on the
// current positions and solves it by at most cgIters CG steps: the
// pure-wirelength optimum that seeds a cold electrostatic run. Fixed cells
// contribute to the RHS.
func solveQuadratic(nl *netlist.Netlist, pos []geom.Point, movable []bool, cgIters int) {
	n := nl.NumCells()
	// Dense→movable index mapping.
	mIdx := make([]int32, n)
	var nm int
	for i := range mIdx {
		if movable[i] {
			mIdx[i] = int32(nm)
			nm++
		} else {
			mIdx[i] = -1
		}
	}
	if nm == 0 {
		return
	}

	for axis := 0; axis < 2; axis++ {
		coord := func(i int) float64 {
			if axis == 0 {
				return pos[i].X
			}
			return pos[i].Y
		}
		m := newSPD(nm)
		rhs := make([]float64, nm)
		x := make([]float64, nm)
		for i := 0; i < n; i++ {
			if mIdx[i] >= 0 {
				x[mIdx[i]] = coord(i)
			}
		}
		stamp := func(i, j int, w float64) {
			if w <= 0 {
				return
			}
			mi, mj := mIdx[i], mIdx[j]
			switch {
			case mi >= 0 && mj >= 0:
				m.addConnection(int(mi), int(mj), w)
			case mi >= 0:
				m.addAnchor(int(mi), w, rhs, coord(j))
			case mj >= 0:
				m.addAnchor(int(mj), w, rhs, coord(i))
			}
		}
		for _, net := range nl.Nets {
			pins := net.Pins()
			k := len(pins)
			if k < 2 {
				continue
			}
			w := net.Weight
			if k == 2 {
				stamp(pins[0], pins[1], w)
				continue
			}
			// Bound-to-bound: find min/max pins on this axis and connect
			// every pin to both bounds (and the bounds to each other) with
			// the B2B weights.
			lo, hi := pins[0], pins[0]
			for _, p := range pins[1:] {
				if coord(p) < coord(lo) {
					lo = p
				}
				if coord(p) > coord(hi) {
					hi = p
				}
			}
			base := w * 2 / float64(k-1)
			b2bw := func(a, b int) float64 {
				d := math.Abs(coord(a) - coord(b))
				if d < 1e-3 {
					d = 1e-3
				}
				return base / d
			}
			if lo != hi {
				stamp(lo, hi, b2bw(lo, hi))
			}
			for _, p := range pins {
				if p == lo || p == hi {
					continue
				}
				stamp(p, lo, b2bw(p, lo))
				stamp(p, hi, b2bw(p, hi))
			}
		}
		m.solveCG(rhs, x, cgIters, 1e-4)
		for i := 0; i < n; i++ {
			if mi := mIdx[i]; mi >= 0 {
				if axis == 0 {
					pos[i].X = x[mi]
				} else {
					pos[i].Y = x[mi]
				}
			}
		}
	}
}
