package placer

// Nesterov-momentum electrostatic global placement (the ePlace/RePlAce
// family, adapted to the column-heterogeneous FPGA fabric): descend the
// preconditioned gradient of
//
//	f(v) = WA-wirelength(v) + λ·overflow(v) + dfW·½ Σ w(vᵢ−vⱼ)²
//
// with the accelerated first-order scheme a_{k+1} = (1+√(4a_k²+1))/2,
// v_{k+1} = u_{k+1} + (a_k−1)/a_{k+1}·(u_{k+1}−u_k), and a per-iteration
// Lipschitz (Barzilai–Borwein) step α = ‖Δv‖/‖Δg‖. λ ramps geometrically so
// wirelength dominates early and density wins late; γ anneals to sharpen
// the WA model. The dataflow term pulls the generator-emitted PE-cascade /
// PU-hierarchy edges together as a first-class force, not a post-hoc
// penalty.
//
// Everything in the loop is deterministic at any GOMAXPROCS: the parallel
// passes write per-index slots, the only floating-point reductions are the
// sharded density splat (fixed shard count, serial in-order reduce) and
// serial whole-array norms.

import (
	"context"
	"fmt"
	"math"
	"time"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
)

// electroState carries the per-iteration vectors of the Nesterov loop.
type electroState struct {
	ux, uy         []float64 // major solution u_k
	nux, nuy       []float64 // u_{k+1} under construction
	gx, gy         []float64 // preconditioned combined gradient at v_k
	pgx, pgy       []float64 // previous gradient (Lipschitz estimate)
	pvx, pvy       []float64 // previous reference point
	dgx, dgy       []float64 // density force scratch
	gradT, densT   time.Duration
	lambda, gamma  float64
	alpha          float64
	overflowTarget float64
}

// runElectrostatic places the movable cells of pos in place. seedCG caps
// the CG steps of a cold start's wirelength seed.
func runElectrostatic(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, movable []bool, opt Options, seedCG int) error {
	iters := 6 * opt.GPIterations
	if opt.Warm == nil {
		// Cold starts are seeded with one pure-wirelength B2B solve: the
		// annealed schedule then only has to *spread* the clumped optimum,
		// not discover the net topology from centroid jitter. Cells then
		// travel at most a cluster radius, so few bin-capped steps are
		// needed.
		solveQuadratic(nl, pos, movable, seedCG)
		clampToDevice(dev, pos, movable)
	}
	// The dataflow attraction is DSPlacer's alone: the Vivado/AMF
	// personalities model datapath-oblivious tools, and Table II stops
	// isolating DSP handling if they see the hierarchy.
	dfW := 0.0
	if opt.Mode == ModeDSPlacer {
		dfW = 0.05
	}
	s := newSOA(nl, pos, movable, dfW)
	d := newDensityGrid(dev, movable)

	n := s.n
	st := &electroState{
		ux: append([]float64(nil), s.x...), uy: append([]float64(nil), s.y...),
		nux: make([]float64, n), nuy: make([]float64, n),
		gx: make([]float64, n), gy: make([]float64, n),
		pgx: make([]float64, n), pgy: make([]float64, n),
		pvx: make([]float64, n), pvy: make([]float64, n),
		dgx: make([]float64, n), dgy: make([]float64, n),
	}
	maxX := dev.Width - 1e-9
	maxY := dev.Height - 1e-9
	binRef := math.Max(d.binW, d.binH)
	st.gamma = 5 * binRef
	gammaFloor := 0.5 * binRef
	st.overflowTarget = 0.02 * d.area
	// λ and γ anneal on the *current* density overflow, not the iteration
	// index (the ePlace/RePlAce discipline). r ∈ [0, 1] grades the placement
	// from spread (overflow at target) to heavily clumped (overflow at half
	// the movable area): γ(r) = γ₀·0.1^((1−r)/0.75) keeps the WA model
	// smooth and long-range while clumped and sharpens it as the placement
	// spreads, and λ grows geometrically — full budget-normalized speed
	// while clumped, a quarter speed near the target, frozen below it.
	// Keying on absolute overflow makes the schedule self-calibrating for
	// any start — a wirelength-seeded clump, a jittered scratch start, and
	// a warm nearly-legal placement each get exactly the penalty pressure
	// and model sharpness their current state calls for, where a ramp
	// indexed on elapsed iterations bakes in one assumed starting state and
	// collapses (or explodes) the others.
	if opt.Warm != nil {
		// A warm run refines an already-spread placement; overflow starts
		// near the target, so a fraction of the budget suffices.
		iters = (iters + 1) / 2
	}
	gamma0 := st.gamma
	ovRef := 0.5 * d.area
	// A full anneal multiplies λ by ~10³ whatever the budget.
	mu0 := math.Pow(1000, 2/float64(iters))
	setSchedule := func() {
		r := clampF((d.overflow-st.overflowTarget)/(ovRef-st.overflowTarget), 0, 1)
		st.gamma = gamma0 * math.Pow(0.1, (1-r)/0.75)
		if st.gamma < gammaFloor {
			st.gamma = gammaFloor
		}
		if d.overflow > st.overflowTarget {
			st.lambda *= math.Pow(mu0, 0.25+0.75*r)
		}
	}

	// evalGradient computes the combined preconditioned gradient at the
	// current reference point (s.x, s.y) into st.gx/st.gy.
	evalGradient := func() {
		t0 := time.Now()
		s.waGradient(st.gamma)
		if s.lap != nil {
			s.lap.MulVec(s.x, s.dfX)
			s.lap.MulVec(s.y, s.dfY)
		}
		st.gradT += time.Since(t0)
		t1 := time.Now()
		d.accumulate(s.x, s.y)
		d.force(s.x, s.y, st.dgx, st.dgy)
		st.densT += time.Since(t1)
		for i := 0; i < n; i++ {
			if !movable[i] {
				st.gx[i], st.gy[i] = 0, 0
				continue
			}
			g1 := s.wlGX[i] + st.lambda*st.dgx[i]
			g2 := s.wlGY[i] + st.lambda*st.dgy[i]
			if s.lap != nil {
				g1 += s.dfW * s.dfX[i]
				g2 += s.dfW * s.dfY[i]
			}
			st.gx[i] = g1 / s.prec[i]
			st.gy[i] = g2 / s.prec[i]
		}
	}

	// Best-iterate snapshot: the annealed trajectory is not monotone — late
	// density-dominated iterations can trade away wirelength the schedule
	// already won — so the returned placement is the best point *visited*,
	// not wherever the budget happens to run out. Preference order: lowest
	// exact HPWL among sufficiently spread iterates (overflow ≤ snapTol);
	// if no iterate ever spreads that far, the least-overflowing one.
	snapTol := 0.05 * d.area
	if snapTol < st.overflowTarget {
		snapTol = st.overflowTarget
	}
	bestHPWL := math.Inf(1)
	bestOv := math.Inf(1)
	bestX := make([]float64, n)
	bestY := make([]float64, n)
	haveEligible := false
	consider := func() {
		ov := d.overflow
		if ov <= snapTol {
			h := s.hpwl()
			if !haveEligible || h < bestHPWL {
				haveEligible = true
				bestHPWL = h
				copy(bestX, s.x)
				copy(bestY, s.y)
			}
			return
		}
		if !haveEligible && ov < bestOv {
			bestOv = ov
			copy(bestX, s.x)
			copy(bestY, s.y)
		}
	}

	a := 1.0
	lambda0 := 0.0
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("placer: electrostatic placement canceled at iteration %d/%d: %w", it, iters, err)
		}
		evalGradient()
		if it == 0 {
			// λ₀ balances the density force against the wirelength force so
			// the ramp starts from a comparable footing; the first step moves
			// the worst cell a fraction of a bin.
			wlN, dN, gMax := 0.0, 0.0, 0.0
			for i := 0; i < n; i++ {
				if !movable[i] {
					continue
				}
				wlN += math.Abs(s.wlGX[i]) + math.Abs(s.wlGY[i])
				dN += math.Abs(st.dgx[i]) + math.Abs(st.dgy[i])
				if g := math.Abs(st.gx[i]) + math.Abs(st.gy[i]); g > gMax {
					gMax = g
				}
			}
			// Start λ under-weighted (0.1 of force balance) so wirelength
			// shapes the placement first; the progress-driven growth takes
			// it from there.
			if dN > 0 {
				lambda0 = 0.1 * wlN / dN
			} else {
				lambda0 = 1
			}
			st.lambda = lambda0
			// Snap γ to the state the starting overflow calls for (sharp
			// for a warm start, smooth for a clump) before re-evaluating.
			setSchedule()
			if gMax > 0 {
				st.alpha = 0.25 * binRef / gMax
			} else {
				st.alpha = binRef
			}
			// Re-evaluate with λ folded in so the stored previous gradient
			// matches the objective the loop descends.
			evalGradient()
		} else {
			num, den := 0.0, 0.0
			for i := 0; i < n; i++ {
				if !movable[i] {
					continue
				}
				dvx := s.x[i] - st.pvx[i]
				dvy := s.y[i] - st.pvy[i]
				dgx := st.gx[i] - st.pgx[i]
				dgy := st.gy[i] - st.pgy[i]
				num += dvx*dvx + dvy*dvy
				den += dgx*dgx + dgy*dgy
			}
			if den > 0 && num > 0 {
				st.alpha = math.Sqrt(num) / math.Sqrt(den)
			}
			if lim := 8 * binRef; st.alpha > lim {
				st.alpha = lim
			}
		}
		// d.overflow and s.x/s.y are a matched pair from the last evalGradient,
		// so the snapshot scores exactly the point it stores.
		consider()

		copy(st.pvx, s.x)
		copy(st.pvy, s.y)
		copy(st.pgx, st.gx)
		copy(st.pgy, st.gy)

		aNext := (1 + math.Sqrt(4*a*a+1)) / 2
		coef := (a - 1) / aNext
		for i := 0; i < n; i++ {
			if !movable[i] {
				st.nux[i], st.nuy[i] = st.ux[i], st.uy[i]
				continue
			}
			u1 := clampF(s.x[i]-st.alpha*st.gx[i], 0, maxX)
			u2 := clampF(s.y[i]-st.alpha*st.gy[i], 0, maxY)
			st.nux[i] = u1
			st.nuy[i] = u2
			s.x[i] = clampF(u1+coef*(u1-st.ux[i]), 0, maxX)
			s.y[i] = clampF(u2+coef*(u2-st.uy[i]), 0, maxY)
		}
		st.ux, st.nux = st.nux, st.ux
		st.uy, st.nuy = st.nuy, st.uy
		a = aNext

		setSchedule()
		// Deterministic early exit: the overflow total is itself bit-exact
		// across worker counts, so this branch fires identically everywhere.
		if it >= iters/3 && d.overflow <= st.overflowTarget {
			break
		}
	}

	// One more look at the final major iterate, then hand back the best
	// point visited rather than wherever the budget ran out.
	copy(s.x, st.ux)
	copy(s.y, st.uy)
	d.accumulate(s.x, s.y)
	consider()
	for i := range pos {
		if movable[i] {
			pos[i] = geom.Point{X: bestX[i], Y: bestY[i]}
		}
	}
	clampToDevice(dev, pos, movable)
	opt.Stages.Add("placer.gradient", st.gradT)
	opt.Stages.Add("placer.density", st.densT)
	return nil
}
