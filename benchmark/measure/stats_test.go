package measure

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true}, // rank 10, ten samples above
		{19, 0.5, 0, false}, // rank 10, nine above
		{21, 0.5, 11, true}, // rank 11, ten above
		{100, 0.9, 90, true},
		{99, 0.9, 0, false}, // rank 90, nine above
		{110, 0.9, 99, true},
		{0, 0.5, 0, false},
		{50, 0, 0, false},
		{50, 1, 0, false},
	} {
		got, ok := Percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("Percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := seq(30)
	Percentile(xs, 0.5)
	if xs[0] != 30 {
		t.Fatalf("Percentile reordered its input: %v", xs[:3])
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	got, err := Geomean([]float64{2, 8})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Fatalf("Geomean(2, 8) = %v, %v; want 4", got, err)
	}
	got, err = Geomean([]float64{5})
	if err != nil || math.Abs(got-5) > 1e-12 {
		t.Fatalf("Geomean(5) = %v, %v; want 5", got, err)
	}
	xs := []float64{16268.1, 4871.125, 34162.1, 0.0982, 5.5763}
	a, _ := Geomean(xs)
	b, _ := Geomean(append([]float64(nil), xs...))
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("equal inputs in equal order gave %v and %v", a, b)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.Inf(1)}, {math.NaN()}} {
		if _, err := Geomean(bad); err == nil {
			t.Errorf("Geomean(%v) returned no error", bad)
		}
	}
}
