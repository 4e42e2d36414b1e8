// Package measure holds the benchmark's statistics, its noise accounting
// and the result line both runners print.
package measure

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie above a percentile before it is
// reported: a tail figure read off fewer samples is mostly noise.
const MinBeyond = 10

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs: the
// smallest sample with at least a share p of the samples at or below it.
// ok is false when fewer than MinBeyond samples rank above it.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	k := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < MinBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], true
}

// Median is the middle sample, or the mean of the two middle ones. It
// needs no samples beyond it: the runners use it for pass times and
// set-up times, of which a run has only a few.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Geomean is the geometric mean of positive xs. It is computed in log
// space, summed in sample order, so equal inputs in equal order give
// equal bits.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no samples")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean of non-positive or infinite sample %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}
