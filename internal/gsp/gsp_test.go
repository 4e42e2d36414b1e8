package gsp

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"dsplacer/internal/graph"
	"dsplacer/internal/mat"
)

// path returns the undirected path 0-1-...-(n-1).
func path(n int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
		g.AddEdge(i+1, i)
	}
	return g
}

// star returns the undirected star with center 0 and n-1 leaves.
func star(n int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
		g.AddEdge(i, 0)
	}
	return g
}

// diamond returns the undirected 4-cycle 0-1-3, 0-2-3.
func diamond() *graph.Digraph {
	g := graph.NewDigraph(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	return g
}

// exactOpts forces indicator probes so small-graph assertions are noise-free.
func exactOpts() Options { return Options{Probes: 64, Seed: 1} }

// Property: the Chebyshev coefficient recursion reproduces polynomial filter
// responses exactly — Clenshaw evaluation of Coeffs(h) matches h at random
// points in [0, λmax] for random diffusion-style polynomials h.
func TestChebyshevCoeffsExactOnPolynomials(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lmax := 1 + 10*rng.Float64()
		deg := 1 + rng.Intn(12)
		h := func(lam float64) float64 {
			return math.Pow(1-lam/lmax, float64(deg))
		}
		c := Coeffs(h, deg, lmax)
		for trial := 0; trial < 20; trial++ {
			lam := lmax * rng.Float64()
			x := 2*lam/lmax - 1
			// Clenshaw evaluation of Σ c_k T_k(x).
			b1, b2 := 0.0, 0.0
			for k := len(c) - 1; k >= 1; k-- {
				b1, b2 = 2*x*b1-b2+c[k], b1
			}
			got := x*b1 - b2 + c[0]
			if math.Abs(got-h(lam)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The filter applied through the CSR recursion must equal the dense power
// S^s·X computed directly: the Chebyshev representation of a degree-s
// polynomial is exact.
func TestFilterMatchesDenseDiffusion(t *testing.T) {
	g := diamond()
	lap := NewLaplacian(g)
	// Dense S = I - L/λmax.
	n := g.N()
	S := mat.NewDense(n, n)
	Ld := lap.L.ToDense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -Ld.At(i, j) / lap.LambdaMax
			if i == j {
				v += 1
			}
			S.Set(i, j, v)
		}
	}
	X := mat.NewDense(n, 3).Randn(rand.New(rand.NewSource(5)), 1)
	want := X.Clone()
	const steps = 6
	for s := 0; s < steps; s++ {
		want = S.Mul(want)
	}
	outs, err := lap.ApplyMulti(context.Background(), [][]float64{lap.DiffusionCoeffs(steps)}, X, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := outs[0].MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("Chebyshev diffusion differs from dense power by %v", d)
	}
}

func TestCentralityRankingStar(t *testing.T) {
	g := star(9)
	res, err := Features(context.Background(), g, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.N(); v++ {
		if res.Closeness[0] <= res.Closeness[v] {
			t.Fatalf("hub closeness %v not above leaf %d (%v)", res.Closeness[0], v, res.Closeness[v])
		}
		if res.Betweenness[0] <= res.Betweenness[v] {
			t.Fatalf("hub betweenness %v not above leaf %d (%v)", res.Betweenness[0], v, res.Betweenness[v])
		}
		if res.Eccentricity[0] >= res.Eccentricity[v] {
			t.Fatalf("hub eccentricity %v not below leaf %d (%v)", res.Eccentricity[0], v, res.Eccentricity[v])
		}
	}
}

func TestCentralityRankingPath(t *testing.T) {
	g := path(5)
	res, err := Features(context.Background(), g, nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Exact ranking on the 5-path: closeness 2 > 1 ≈ 3 > 0 ≈ 4,
	// eccentricity the reverse, betweenness peaks at the middle.
	if !(res.Closeness[2] > res.Closeness[1] && res.Closeness[1] > res.Closeness[0]) {
		t.Fatalf("closeness ranking broken: %v", res.Closeness)
	}
	if !(res.Eccentricity[0] > res.Eccentricity[1] && res.Eccentricity[1] > res.Eccentricity[2]) {
		t.Fatalf("eccentricity ranking broken: %v", res.Eccentricity)
	}
	if !(res.Betweenness[2] > res.Betweenness[1] && res.Betweenness[1] > res.Betweenness[0]) {
		t.Fatalf("betweenness ranking broken: %v", res.Betweenness)
	}
	// Symmetry of the path must survive the estimator exactly.
	if res.Closeness[0] != res.Closeness[4] || res.Betweenness[1] != res.Betweenness[3] {
		t.Fatalf("path symmetry broken: %v", res.Closeness)
	}
}

func TestCentralitySymmetryDiamond(t *testing.T) {
	res, err := Features(context.Background(), diamond(), nil, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	// All four nodes are automorphic-equivalent in pairs: {0,3} and {1,2}.
	if res.Closeness[0] != res.Closeness[3] || res.Closeness[1] != res.Closeness[2] {
		t.Fatalf("diamond closeness symmetry broken: %v", res.Closeness)
	}
	if res.Betweenness[1] != res.Betweenness[2] {
		t.Fatalf("diamond betweenness symmetry broken: %v", res.Betweenness)
	}
}

func TestAvgDSPDistRanking(t *testing.T) {
	// Path 0-..-9 with DSPs at 0, 1 and 9: the adjacent pair must get a
	// smaller distance surrogate than the far end.
	g := path(10)
	dsp := []int{0, 1, 9}
	res, err := Features(context.Background(), g, dsp, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDSPDist == nil {
		t.Fatal("no AvgDSPDist computed")
	}
	if !(res.AvgDSPDist[0] < res.AvgDSPDist[9] && res.AvgDSPDist[1] < res.AvgDSPDist[9]) {
		t.Fatalf("distance surrogate ranking broken: %v", []float64{res.AvgDSPDist[0], res.AvgDSPDist[1], res.AvgDSPDist[9]})
	}
	// Non-DSP nodes stay zero.
	if res.AvgDSPDist[5] != 0 {
		t.Fatalf("non-DSP node got %v", res.AvgDSPDist[5])
	}
	// Fewer than two DSPs: no column at all.
	one, err := Features(context.Background(), g, []int{3}, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	if one.AvgDSPDist != nil {
		t.Fatal("single-DSP input must not produce distances")
	}
}

func TestProbesFrozenSeed(t *testing.T) {
	a := Probes(50, 6, 7)
	b := Probes(50, 6, 7)
	c := Probes(50, 6, 8)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("same seed produced different probes")
	}
	if c.MaxAbsDiff(a) == 0 {
		t.Fatal("different seeds produced identical probes")
	}
	for _, v := range a.Data {
		if v != 1 && v != -1 {
			t.Fatalf("probe entry %v not ±1", v)
		}
	}
}

// Frozen-seed repeatability and GOMAXPROCS bit-identity of the whole
// estimator on a random graph with sampled (non-exact) probes.
func TestFeaturesBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 400
	g := graph.NewDigraph(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !slices.Contains(g.Out(u), v) {
			g.AddEdge(u, v)
			g.AddEdge(v, u)
		}
	}
	dsp := []int{3, 50, 100, 333}
	opt := Options{Probes: 8, Order: 12, Seed: 9}

	run := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := Features(context.Background(), g, dsp, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for _, pair := range [][2][]float64{
		{a.Closeness, b.Closeness},
		{a.Eccentricity, b.Eccentricity},
		{a.Betweenness, b.Betweenness},
		{a.AvgDSPDist, b.AvgDSPDist},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("estimator differs at node %d: %v vs %v", i, pair[0][i], pair[1][i])
			}
		}
	}
	// Same options → bitwise repeatable.
	c := run(4)
	for i := range a.Closeness {
		if a.Closeness[i] != c.Closeness[i] {
			t.Fatal("frozen-seed repeatability broken")
		}
	}
}

func TestFilterCancellation(t *testing.T) {
	g := path(50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Features(ctx, g, nil, Options{Probes: 4, Order: 16, Seed: 1}); err == nil {
		t.Fatal("canceled context not observed")
	} else if !errorsIsCanceled(err) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func errorsIsCanceled(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == context.Canceled {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

func TestEmptyGraph(t *testing.T) {
	res, err := Features(context.Background(), graph.NewDigraph(0), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Closeness) != 0 {
		t.Fatal("empty graph produced features")
	}
}
