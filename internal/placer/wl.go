package placer

// Weighted-average (WA) wirelength model: each net's HPWL is smoothed per
// axis as WA⁺−WA⁻ with WA⁺ = Σxᵢe^{xᵢ/γ}/Σe^{xᵢ/γ} (and the mirrored form
// for the minimum), the differentiable estimator ePlace-family engines
// descend. γ controls sharpness: large γ early gives smooth long-range
// gradients, annealing it down sharpens the model toward true HPWL.

import (
	"math"

	"dsplacer/internal/par"
)

// waGradient computes the WA wirelength gradient at the current (x, y) into
// wlGX/wlGY. Pass 1 computes each net on one worker, writing only that net's
// pin slots; pass 2 gathers per cell over its fixed, ascending incidence
// order. Both passes are therefore bit-identical at any worker count.
func (s *soa) waGradient(gamma float64) {
	invG := 1 / gamma
	nNets := len(s.netPtr) - 1
	par.ForEach(nNets, func(e int) {
		lo, hi := int(s.netPtr[e]), int(s.netPtr[e+1])
		w := s.netW[e]
		waAxis(s.x, s.netPin, s.pinA, s.pinB, s.pinGX, lo, hi, w, invG)
		waAxis(s.y, s.netPin, s.pinA, s.pinB, s.pinGY, lo, hi, w, invG)
	})
	par.ForEach(s.n, func(i int) {
		gx, gy := 0.0, 0.0
		for k := s.cellPtr[i]; k < s.cellPtr[i+1]; k++ {
			slot := s.cellSlot[k]
			gx += s.pinGX[slot]
			gy += s.pinGY[slot]
		}
		s.wlGX[i] = gx
		s.wlGY[i] = gy
	})
}

// hpwl returns the exact weighted HPWL at the current coordinates. The
// parallel pass writes one span per net and the sum is serial in net order,
// so the value is bit-identical at any worker count.
func (s *soa) hpwl() float64 {
	nNets := len(s.netPtr) - 1
	par.ForEach(nNets, func(e int) {
		lo, hi := int(s.netPtr[e]), int(s.netPtr[e+1])
		mnx := s.x[s.netPin[lo]]
		mxx := mnx
		mny := s.y[s.netPin[lo]]
		mxy := mny
		for p := lo + 1; p < hi; p++ {
			cx := s.x[s.netPin[p]]
			cy := s.y[s.netPin[p]]
			if cx < mnx {
				mnx = cx
			}
			if cx > mxx {
				mxx = cx
			}
			if cy < mny {
				mny = cy
			}
			if cy > mxy {
				mxy = cy
			}
		}
		s.netSpan[e] = s.netW[e] * ((mxx - mnx) + (mxy - mny))
	})
	t := 0.0
	for _, v := range s.netSpan {
		t += v
	}
	return t
}

// waAxis writes one net's per-pin WA gradient along one axis into g[lo:hi].
// Exponents are shifted by the net's max/min so every exp argument is ≤ 0,
// keeping the sums in [1, k] regardless of coordinates.
func waAxis(coord []float64, pin []int32, a, b, g []float64, lo, hi int, w, invG float64) {
	if hi-lo == 2 {
		// Two-pin nets — the bulk of chain-heavy accelerator netlists —
		// collapse to a closed form: after the max/min shift the exponents
		// are 0 and −span/γ, so one exp serves both WA terms, and the two
		// pin gradients are exactly opposite. One exp call per axis instead
		// of four.
		c0 := coord[pin[lo]]
		c1 := coord[pin[lo+1]]
		d := c0 - c1
		if d < 0 {
			d = -d
		}
		e := math.Exp(-d * invG)
		s1 := 1 / (1 + e)
		gp := (1 + e*d*invG*s1) * s1
		gm := e * s1 * (1 - d*invG*s1)
		gv := w * (gp - gm)
		if c0 < c1 {
			gv = -gv
		}
		g[lo] = gv
		g[lo+1] = -gv
		return
	}
	mn := coord[pin[lo]]
	mx := mn
	for p := lo + 1; p < hi; p++ {
		c := coord[pin[p]]
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	var sp, sm, spx, smx float64
	for p := lo; p < hi; p++ {
		c := coord[pin[p]]
		ea := math.Exp((c - mx) * invG)
		eb := math.Exp((mn - c) * invG)
		a[p], b[p] = ea, eb
		sp += ea
		sm += eb
		spx += c * ea
		smx += c * eb
	}
	waP := spx / sp
	waM := smx / sm
	for p := lo; p < hi; p++ {
		c := coord[pin[p]]
		gp := a[p] / sp * (1 + (c-waP)*invG)
		gm := b[p] / sm * (1 - (c-waM)*invG)
		g[p] = w * (gp - gm)
	}
}
