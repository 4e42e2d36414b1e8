package placer

// FFT-free density force: movable cells are splatted bilinearly onto a bin
// grid, the grid is box-downsampled into a multigrid pyramid, each level's
// occupancy is converted to *overflow* against its scaled share of the
// fabric capacity, and the per-cell force is the summed finite-difference
// gradient of the overflow fields. Coarse levels supply the long-range
// component a single-level diffusion model lacks, without a Poisson solve.
//
// The splat is the one floating-point reduction of the engine, so it runs
// over par.ForEachShard with the fixed DefaultShards shard count: each shard
// accumulates into its own grid and the grids are reduced serially in shard
// order, making the sums bit-identical at any GOMAXPROCS.

import (
	"dsplacer/internal/fpga"
	"dsplacer/internal/par"
)

type densityGrid struct {
	m            int // finest grid is m×m bins, m a power of two ≥ 4
	binW, binH   float64
	invBW, invBH float64
	cap0         float64 // per-finest-bin capacity (≈60% utilization share)
	ids          []int   // movable cell ids, ascending

	shards [][]float64 // per-shard finest grids (splat scratch)
	levels [][]float64 // overflow pyramid; levels[0] is the finest (m×m)
	gradX  [][]float64 // per-level finite-difference overflow gradients
	gradY  [][]float64

	overflow float64 // finest-level total overflow of the last accumulate
	area     float64 // total movable area (one unit per cell)
}

func newDensityGrid(dev *fpga.Device, movable []bool) *densityGrid {
	var ids []int
	for i, mv := range movable {
		if mv {
			ids = append(ids, i)
		}
	}
	// ~4 cells per finest bin on average, power of two in [8, 512]. The cap
	// only guards pathological inputs: full-scale designs (~10⁵ cells) need
	// m=256 — capping coarser stacks dozens of cells per bin, and the force
	// field cannot resolve (or spread) overlap inside one bin.
	m := 8
	for m*m*4 < len(ids) && m < 512 {
		m *= 2
	}
	d := &densityGrid{m: m, ids: ids, area: float64(len(ids))}
	d.binW = dev.Width / float64(m)
	d.binH = dev.Height / float64(m)
	d.invBW = 1 / d.binW
	d.invBH = 1 / d.binH
	d.cap0 = capacityEstimate(dev) / float64(m*m)
	d.shards = make([][]float64, par.DefaultShards)
	for s := range d.shards {
		d.shards[s] = make([]float64, m*m)
	}
	for lv := m; lv >= 4; lv /= 2 {
		d.levels = append(d.levels, make([]float64, lv*lv))
		d.gradX = append(d.gradX, make([]float64, lv*lv))
		d.gradY = append(d.gradY, make([]float64, lv*lv))
	}
	return d
}

// accumulate rebuilds the overflow pyramid and its gradient fields from the
// current coordinates.
func (d *densityGrid) accumulate(x, y []float64) {
	m := d.m
	par.ForEachShard(len(d.ids), par.DefaultShards, func(s, lo, hi int) {
		grid := d.shards[s]
		for i := range grid {
			grid[i] = 0
		}
		for k := lo; k < hi; k++ {
			id := d.ids[k]
			u := clampF(x[id]*d.invBW-0.5, 0, float64(m-1))
			v := clampF(y[id]*d.invBH-0.5, 0, float64(m-1))
			i0 := int(u)
			j0 := int(v)
			if i0 > m-2 {
				i0 = m - 2
			}
			if j0 > m-2 {
				j0 = m - 2
			}
			fu := u - float64(i0)
			fv := v - float64(j0)
			grid[j0*m+i0] += (1 - fu) * (1 - fv)
			grid[j0*m+i0+1] += fu * (1 - fv)
			grid[(j0+1)*m+i0] += (1 - fu) * fv
			grid[(j0+1)*m+i0+1] += fu * fv
		}
	})
	// Serial in-shard-order reduction: summation order is fixed, so the
	// density grid is identical at every worker count.
	fine := d.levels[0]
	for i := range fine {
		fine[i] = 0
	}
	for _, grid := range d.shards {
		for i, v := range grid {
			fine[i] += v
		}
	}

	// Downsample raw densities level by level, converting each level to
	// overflow in place once its child has been built from it.
	capL := d.cap0
	lvSize := m
	for l := range d.levels {
		cur := d.levels[l]
		if l+1 < len(d.levels) {
			next := d.levels[l+1]
			half := lvSize / 2
			for j := 0; j < half; j++ {
				for i := 0; i < half; i++ {
					next[j*half+i] = cur[2*j*lvSize+2*i] + cur[2*j*lvSize+2*i+1] +
						cur[(2*j+1)*lvSize+2*i] + cur[(2*j+1)*lvSize+2*i+1]
				}
			}
		}
		tot := 0.0
		for i, v := range cur {
			ov := v - capL
			if ov < 0 {
				ov = 0
			}
			cur[i] = ov
			tot += ov
		}
		if l == 0 {
			d.overflow = tot
		}
		capL *= 4
		lvSize /= 2
	}

	// Central-difference gradient fields (one-sided at borders, so border
	// overflow pushes inward rather than off-die).
	lvSize = m
	bw, bh := d.binW, d.binH
	for l, ov := range d.levels {
		gx, gy := d.gradX[l], d.gradY[l]
		for j := 0; j < lvSize; j++ {
			for i := 0; i < lvSize; i++ {
				il, ir := i-1, i+1
				if il < 0 {
					il = 0
				}
				if ir > lvSize-1 {
					ir = lvSize - 1
				}
				jl, jr := j-1, j+1
				if jl < 0 {
					jl = 0
				}
				if jr > lvSize-1 {
					jr = lvSize - 1
				}
				gx[j*lvSize+i] = (ov[j*lvSize+ir] - ov[j*lvSize+il]) / (float64(ir-il) * bw)
				gy[j*lvSize+i] = (ov[jr*lvSize+i] - ov[jl*lvSize+i]) / (float64(jr-jl) * bh)
			}
		}
		lvSize /= 2
		bw *= 2
		bh *= 2
	}
}

// force writes the per-cell density gradient (the summed bilinear samples of
// every level's overflow gradient field) into fx/fy at the cells' own slots.
func (d *densityGrid) force(x, y, fx, fy []float64) {
	par.ForEach(len(d.ids), func(k int) {
		id := d.ids[k]
		gx, gy := 0.0, 0.0
		lvSize := d.m
		ibw, ibh := d.invBW, d.invBH
		for l := range d.levels {
			u := x[id]*ibw - 0.5
			v := y[id]*ibh - 0.5
			gx += sampleBilinear(d.gradX[l], lvSize, u, v)
			gy += sampleBilinear(d.gradY[l], lvSize, u, v)
			lvSize /= 2
			ibw /= 2
			ibh /= 2
		}
		fx[id] = gx
		fy[id] = gy
	})
}

// sampleBilinear reads a bin-centered field of size m×m at continuous bin
// coordinates (u, v), clamped to the grid.
func sampleBilinear(field []float64, m int, u, v float64) float64 {
	u = clampF(u, 0, float64(m-1))
	v = clampF(v, 0, float64(m-1))
	i0 := int(u)
	j0 := int(v)
	if i0 > m-2 {
		i0 = m - 2
	}
	if j0 > m-2 {
		j0 = m - 2
	}
	fu := u - float64(i0)
	fv := v - float64(j0)
	return field[j0*m+i0]*(1-fu)*(1-fv) +
		field[j0*m+i0+1]*fu*(1-fv) +
		field[(j0+1)*m+i0]*(1-fu)*fv +
		field[(j0+1)*m+i0+1]*fu*fv
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// capacityEstimate approximates how many unit cells the fabric holds at a
// routable utilization (CLB slots dominate; ~60% of peak density).
func capacityEstimate(dev *fpga.Device) float64 {
	total := 0.0
	for i := range dev.Columns {
		total += float64(dev.Columns[i].NumSites * dev.Columns[i].Capacity)
	}
	return total * 0.6
}
