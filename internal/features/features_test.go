package features

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/mat"
	"dsplacer/internal/netlist"
)

// chainWithLoop: ps→lut→dsp0→dsp1→ff→io plus ff→lut feedback.
func chainWithLoop() *netlist.Netlist {
	nl := netlist.New("f")
	ps := nl.AddCell("ps", netlist.PSPort)
	lut := nl.AddCell("lut", netlist.LUT)
	d0 := nl.AddCell("d0", netlist.DSP)
	d1 := nl.AddCell("d1", netlist.DSP)
	ff := nl.AddCell("ff", netlist.FF)
	io := nl.AddCell("io", netlist.IO)
	nl.AddNet("n0", ps.ID, lut.ID)
	nl.AddNet("n1", lut.ID, d0.ID)
	nl.AddNet("n2", d0.ID, d1.ID)
	nl.AddNet("n3", d1.ID, ff.ID)
	nl.AddNet("n4", ff.ID, io.ID, lut.ID) // feedback to lut
	return nl
}

func TestExtractShapes(t *testing.T) {
	nl := chainWithLoop()
	s := Extract(nl, Config{})
	if s.X.R != nl.NumCells() || s.X.C != NumFeatures {
		t.Fatalf("X is %dx%d", s.X.R, s.X.C)
	}
	if len(s.DSP) != 2 {
		t.Fatalf("DSP=%v", s.DSP)
	}
}

func TestDegreesAndFeedback(t *testing.T) {
	nl := chainWithLoop()
	s := Extract(nl, Config{})
	lut := 1
	if got := s.X.At(lut, InDegree); got != 2 { // from ps and ff
		t.Fatalf("lut indegree=%v", got)
	}
	if got := s.X.At(lut, OutDegree); got != 1 {
		t.Fatalf("lut outdegree=%v", got)
	}
	// lut, d0, d1, ff form the cycle; ps and io do not.
	for v, want := range map[int]float64{0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 0} {
		if got := s.X.At(v, FeedbackLoop); got != want {
			t.Errorf("feedback[%d]=%v want %v", v, got, want)
		}
	}
}

func TestSampledMatchesExactRanking(t *testing.T) {
	// Build a medium star-of-chains graph and check that the probe-sampled
	// estimator (fewer probes than nodes) ranks the hub's betweenness
	// highest, as the exact metric does.
	nl := netlist.New("m")
	hub := nl.AddCell("hub", netlist.LUT)
	for a := 0; a < 8; a++ {
		prev := hub.ID
		for b := 0; b < 6; b++ {
			c := nl.AddCell("c", netlist.FF)
			nl.AddNet("n", prev, c.ID)
			prev = c.ID
		}
	}
	s := Extract(nl, Config{Seed: 7})
	hubB := s.X.At(hub.ID, Betweenness)
	for v := 1; v < nl.NumCells(); v++ {
		if s.X.At(v, Betweenness) > hubB {
			t.Fatalf("node %d betweenness %v exceeds hub %v", v, s.X.At(v, Betweenness), hubB)
		}
	}
	if s.X.At(hub.ID, Eccentricity) <= 0 {
		t.Fatal("eccentricity missing")
	}
	if s.X.At(hub.ID, Closeness) <= 0 {
		t.Fatal("closeness missing")
	}
}

func TestStandardize(t *testing.T) {
	X := mat.FromRows([][]float64{{1, 5, 7}, {3, 5, 9}, {5, 5, 11}})
	Z := Standardize(X)
	// Column 0: mean 3, values standardized; column 1 constant → zeros.
	for j := 0; j < 3; j++ {
		mean := 0.0
		for i := 0; i < 3; i++ {
			mean += Z.At(i, j)
		}
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean %v", j, mean)
		}
	}
	if Z.At(0, 1) != 0 || Z.At(2, 1) != 0 {
		t.Fatal("constant column must standardize to zero")
	}
	if Z.At(0, 0) >= 0 || Z.At(2, 0) <= 0 {
		t.Fatal("ordering not preserved")
	}
	// Original must be untouched.
	if X.At(0, 0) != 1 {
		t.Fatal("input mutated")
	}
}

func TestSingleDSPNoDistances(t *testing.T) {
	nl := netlist.New("one")
	a := nl.AddCell("a", netlist.LUT)
	d := nl.AddCell("d", netlist.DSP)
	nl.AddNet("n", a.ID, d.ID)
	s := Extract(nl, Config{})
	if got := s.X.At(d.ID, AvgDSPDist); got != 0 {
		t.Fatalf("single DSP avg dist = %v, want 0", got)
	}
}

func TestGSPModePopulatesAllColumns(t *testing.T) {
	nl := chainWithLoop()
	s := Extract(nl, Config{Probes: 64, Seed: 1})
	if s.X.R != nl.NumCells() || s.X.C != NumFeatures {
		t.Fatalf("X is %dx%d", s.X.R, s.X.C)
	}
	// Interior nodes must out-rank the leaves on the surrogate centralities,
	// exactly as on the exact metrics.
	lut, io := 1, 5
	if !(s.X.At(lut, Betweenness) > s.X.At(io, Betweenness)) {
		t.Fatalf("betweenness lut=%v io=%v", s.X.At(lut, Betweenness), s.X.At(io, Betweenness))
	}
	if !(s.X.At(lut, Closeness) > s.X.At(io, Closeness)) {
		t.Fatalf("closeness lut=%v io=%v", s.X.At(lut, Closeness), s.X.At(io, Closeness))
	}
	if !(s.X.At(io, Eccentricity) > s.X.At(lut, Eccentricity)) {
		t.Fatalf("eccentricity io=%v lut=%v", s.X.At(io, Eccentricity), s.X.At(lut, Eccentricity))
	}
	// Adjacent DSP pair: both get the same positive distance surrogate.
	if s.X.At(2, AvgDSPDist) <= 0 || s.X.At(2, AvgDSPDist) != s.X.At(3, AvgDSPDist) {
		t.Fatalf("gsp dsp distances %v vs %v", s.X.At(2, AvgDSPDist), s.X.At(3, AvgDSPDist))
	}
	if s.X.At(lut, InDegree) != 2 || s.X.At(lut, FeedbackLoop) != 1 {
		t.Fatal("degree/feedback columns missing")
	}
}

func TestExtractContextCancellation(t *testing.T) {
	nl := chainWithLoop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExtractContext(ctx, nl, Config{})
	if err == nil {
		t.Fatal("extraction ignored canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// A live context must behave exactly like Extract.
	s, err := ExtractContext(context.Background(), nl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.X.MaxAbsDiff(Extract(nl, Config{}).X) != 0 {
		t.Fatal("ExtractContext and Extract disagree")
	}
}

// Frozen-seed determinism of the probe-sampled estimator: the probe matrix
// is a pure function of the seed, so the same seed gives the same features,
// bitwise.
func TestSampledFrozenSeedDeterminism(t *testing.T) {
	nl := netlist.New("m")
	hub := nl.AddCell("hub", netlist.LUT)
	prev := hub.ID
	for b := 0; b < 40; b++ {
		c := nl.AddCell("c", netlist.FF)
		nl.AddNet("n", prev, c.ID)
		prev = c.ID
	}
	cfg := Config{Seed: 13}
	a := Extract(nl, cfg)
	b := Extract(nl, cfg)
	if a.X.MaxAbsDiff(b.X) != 0 {
		t.Fatal("same seed produced different features")
	}
	c := Extract(nl, Config{Seed: 14})
	if c.X.MaxAbsDiff(a.X) == 0 {
		t.Fatal("different seeds produced identical features")
	}
}

// TestGSPVsExactRanking checks the spectral surrogates against the exact
// O(N·M) metrics of internal/graph on a generated CNN-accelerator workload.
// The comparison is rank-based — Spearman correlation over all nodes plus
// top-quartile overlap — and the thresholds are deliberately coarse:
// diffusion/resolvent surrogates share the broad centrality ordering with
// the distance-based metrics, not the fine ranking. Probes exceeds the node
// count, so the diagonal estimates are exact and the assertion is
// deterministic.
func TestGSPVsExactRanking(t *testing.T) {
	nl, err := gen.Generate(gen.Spec{Name: "rank", LUT: 600, LUTRAM: 60, FF: 450,
		BRAM: 12, DSP: 36, FreqMHz: 200, Seed: 4}, fpga.NewZCU104())
	if err != nil {
		t.Fatal(err)
	}
	gspSet, err := ExtractContext(context.Background(), nl, Config{Probes: 4096, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ug := nl.ToGraph().Undirected()
	exact := map[int][]float64{Closeness: ug.Closeness(), Betweenness: ug.Betweenness()}
	n := nl.NumCells()
	column := func(s *Set, col int) []float64 {
		out := make([]float64, n)
		for v := 0; v < n; v++ {
			out[v] = s.X.At(v, col)
		}
		return out
	}
	ranks := func(x []float64) []float64 {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
		r := make([]float64, len(x))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	spearman := func(a, b []float64) float64 {
		ra, rb := ranks(a), ranks(b)
		var ma, mb float64
		for i := range ra {
			ma += ra[i]
			mb += rb[i]
		}
		ma /= float64(len(ra))
		mb /= float64(len(rb))
		var num, da, db float64
		for i := range ra {
			num += (ra[i] - ma) * (rb[i] - mb)
			da += (ra[i] - ma) * (ra[i] - ma)
			db += (rb[i] - mb) * (rb[i] - mb)
		}
		return num / math.Sqrt(da*db)
	}
	topOverlap := func(a, b []float64) float64 {
		k := len(a) / 4
		top := func(x []float64) map[int]bool {
			idx := make([]int, len(x))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(p, q int) bool { return x[idx[p]] > x[idx[q]] })
			m := make(map[int]bool, k)
			for _, i := range idx[:k] {
				m[i] = true
			}
			return m
		}
		ta, tb := top(a), top(b)
		hit := 0
		for i := range ta {
			if tb[i] {
				hit++
			}
		}
		return float64(hit) / float64(k)
	}
	for _, tc := range []struct {
		col    int
		name   string
		minRho float64
		minTop float64
	}{
		{Closeness, "closeness", 0.3, 0.45},
		{Betweenness, "betweenness", 0.5, 0.35},
	} {
		a, b := exact[tc.col], column(gspSet, tc.col)
		t.Logf("%s: spearman %.3f, top-quartile overlap %.2f", tc.name, spearman(a, b), topOverlap(a, b))
		if rho := spearman(a, b); rho < tc.minRho {
			t.Errorf("%s: spearman %.3f < %.2f", tc.name, rho, tc.minRho)
		}
		if ov := topOverlap(a, b); ov < tc.minTop {
			t.Errorf("%s: top-quartile overlap %.2f < %.2f", tc.name, ov, tc.minTop)
		}
	}
}
