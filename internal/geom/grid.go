package geom

import (
	"cmp"
	"math"
	"slices"
)

// GridIndex is a uniform bucket grid over a fixed point set supporting
// exact k-nearest queries under the Manhattan metric. The assignment loop
// builds one index over the device's DSP-site locations and queries it for
// every cell's candidate sites each iteration, replacing a full O(sites)
// scan-and-sort per query with an expanding ring search over a handful of
// buckets.
//
// Queries are read-only after construction and safe for concurrent use.
type GridIndex struct {
	pts    []Point
	minX   float64
	minY   float64
	cell   float64 // bucket side length
	nx, ny int
	// bucket[by*nx+bx] lists point indices in ascending order, so tie
	// handling matches the reference linear scan exactly.
	bucket [][]int32
}

// NewGridIndex builds the index over pts. The bucket size targets a few
// points per bucket; degenerate inputs (all points coincident, tiny sets)
// collapse to a single bucket and remain correct.
func NewGridIndex(pts []Point) *GridIndex {
	g := &GridIndex{pts: pts, nx: 1, ny: 1, cell: 1}
	n := len(pts)
	if n == 0 {
		g.bucket = make([][]int32, 1)
		return g
	}
	bb := BoundingBox(pts)
	g.minX, g.minY = bb.MinX, bb.MinY
	w, h := bb.Width(), bb.Height()
	// ~sqrt(n) buckets per axis keeps mean occupancy near 1 for roughly
	// uniform sets; DSP sites sit in sparse columns, which only makes rings
	// terminate sooner.
	m := math.Ceil(math.Sqrt(float64(n)))
	if side := math.Max(w, h) / m; side > 0 {
		g.cell = side
		g.nx = int(w/side) + 1
		g.ny = int(h/side) + 1
	}
	g.bucket = make([][]int32, g.nx*g.ny)
	for i, p := range pts {
		bx, by := g.bucketOf(p)
		b := by*g.nx + bx
		g.bucket[b] = append(g.bucket[b], int32(i))
	}
	return g
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

// bucketOf returns the bucket coordinates of p clamped into the grid.
func (g *GridIndex) bucketOf(p Point) (int, int) {
	bx := int((p.X - g.minX) / g.cell)
	by := int((p.Y - g.minY) / g.cell)
	if bx < 0 {
		bx = 0
	} else if bx >= g.nx {
		bx = g.nx - 1
	}
	if by < 0 {
		by = 0
	} else if by >= g.ny {
		by = g.ny - 1
	}
	return bx, by
}

// distIdx pairs a candidate's Manhattan distance with its point index.
type distIdx struct {
	d float64
	i int32
}

// NearestBuf holds reusable query scratch. One buffer per worker removes
// the per-query allocations; the slice returned by Nearest aliases the
// buffer and is valid until the next call using the same buffer.
type NearestBuf struct {
	cand []distIdx
	out  []int
}

// Nearest returns the indices of the k points closest to target in
// Manhattan distance, sorted by (distance, index) with ties broken by the
// smaller index — element-for-element identical to sorting all points by
// (distance, index) and keeping the first k. buf may be nil.
//
// The search visits square rings of buckets outward from the target's
// bucket. For a target t and any bucket at Chebyshev ring r ≥ 1 from the
// bucket of clamp(t): every point q in that bucket satisfies
// L1(t,q) ≥ L1(clamp(t),q) ≥ (r−1)·cell, so once the current k-th best
// distance is strictly below (r−1)·cell no further ring can contribute,
// including distance ties (which would only lose on the index tiebreak to
// already-collected candidates at strictly smaller distance).
func (g *GridIndex) Nearest(target Point, k int, buf *NearestBuf) []int {
	n := len(g.pts)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if buf == nil {
		buf = &NearestBuf{}
	}
	cand := buf.cand[:0]
	cx, cy := g.bucketOf(target)

	maxRing := g.nx
	if g.ny > maxRing {
		maxRing = g.ny
	}
	kth := math.Inf(1)
	for r := 0; r <= maxRing; r++ {
		// Once the k-th best distance beats the ring's lower bound, stop:
		// the bound is strict, so on equality a tied point could still
		// appear in this ring and win the index tiebreak — keep scanning.
		if len(cand) >= k && kth < float64(r-1)*g.cell {
			break
		}
		if !g.scanRing(target, cx, cy, r, &cand) && r > 0 {
			// Ring fully outside the grid; every later ring is too, so all
			// points have been collected.
			break
		}
		if len(cand) >= k {
			// Keep only the current top k: everything past position k-1
			// sorts at (distance, index) ≥ the k-th entry and can never
			// re-enter.
			sortCand(cand)
			cand = cand[:k]
			kth = cand[k-1].d
		}
	}
	sortCand(cand)
	if len(cand) > k {
		cand = cand[:k]
	}
	out := buf.out[:0]
	for _, c := range cand {
		out = append(out, int(c.i))
	}
	buf.cand = cand[:0]
	buf.out = out
	return out
}

// scanRing appends every point in the buckets at Chebyshev ring r around
// (cx, cy) to cand, and reports whether any bucket of the ring intersected
// the grid.
func (g *GridIndex) scanRing(target Point, cx, cy, r int, cand *[]distIdx) bool {
	add := func(bx, by int) {
		for _, i := range g.bucket[by*g.nx+bx] {
			p := g.pts[i]
			d := math.Abs(p.X-target.X) + math.Abs(p.Y-target.Y)
			*cand = append(*cand, distIdx{d: d, i: i})
		}
	}
	if r == 0 {
		add(cx, cy)
		return true
	}
	x0, x1 := cx-r, cx+r
	y0, y1 := cy-r, cy+r
	any := false
	for bx := x0; bx <= x1; bx++ {
		if bx < 0 || bx >= g.nx {
			continue
		}
		for _, by := range [2]int{y0, y1} {
			if by >= 0 && by < g.ny {
				any = true
				add(bx, by)
			}
		}
	}
	for by := y0 + 1; by <= y1-1; by++ {
		if by < 0 || by >= g.ny {
			continue
		}
		for _, bx := range [2]int{x0, x1} {
			if bx >= 0 && bx < g.nx {
				any = true
				add(bx, by)
			}
		}
	}
	return any
}

// sortCand orders candidates by (distance, index). Indices are unique, so
// the order is total and any correct sort gives the same result.
func sortCand(cand []distIdx) {
	slices.SortFunc(cand, func(a, b distIdx) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
}
