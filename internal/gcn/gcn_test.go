package gcn

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dsplacer/internal/features"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/graph"
	"dsplacer/internal/mat"
	"dsplacer/internal/netlist"
)

// ringSample builds a small labeled sample: a ring of 2k nodes where the
// label equals a threshold on the first feature; features are informative
// so the network can learn the mapping.
func ringSample(n int, seed int64) *Sample {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	X := mat.NewDense(n, 3)
	labels := make([]int, n)
	mask := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		mask[i] = i
		X.Set(i, 0, float64(cls)*2-1+rng.NormFloat64()*0.1)
		X.Set(i, 1, rng.NormFloat64()*0.1)
		X.Set(i, 2, rng.NormFloat64()*0.1)
	}
	return &Sample{Name: "ring", Adj: NormalizedAdjacency(g), X: X, Labels: labels, Mask: mask}
}

func smallCfg() Config {
	return Config{InputDim: 3, Hidden: 8, FC1: 8, FC2: 4, Dropout: 0,
		LR: 0.02, Epochs: 120, Seed: 3, WeightedLoss: true}
}

func TestNormalizedAdjacency(t *testing.T) {
	g := graph.NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	a := NormalizedAdjacency(g).ToDense()
	// Symmetric.
	if a.MaxAbsDiff(a.T()) > 1e-12 {
		t.Fatal("Â must be symmetric")
	}
	// Self-loops present.
	for i := 0; i < 3; i++ {
		if a.At(i, i) <= 0 {
			t.Fatalf("missing self-loop at %d", i)
		}
	}
	// Node 1 has degree 2+1: Â[1][1] = 1/3.
	if math.Abs(a.At(1, 1)-1.0/3.0) > 1e-12 {
		t.Fatalf("Â[1][1]=%v", a.At(1, 1))
	}
	// Â[0][1] = 1/sqrt(2)·1/sqrt(3).
	want := 1 / math.Sqrt(2) / math.Sqrt(3)
	if math.Abs(a.At(0, 1)-want) > 1e-12 {
		t.Fatalf("Â[0][1]=%v want %v", a.At(0, 1), want)
	}

	// The in-place row fill equals COO triples summed by mat.NewCSR, on a
	// netlist graph and on a digraph with self-loops, reciprocal and
	// duplicate edges and isolated nodes (3, 6).
	odd := graph.NewDigraph(7)
	for _, e := range [][2]int{{0, 0}, {0, 2}, {2, 0}, {1, 5}, {1, 5}, {5, 1}, {4, 4}, {5, 2}, {2, 4}, {4, 2}} {
		odd.AddEdge(e[0], e[1])
	}
	for name, g := range map[string]*graph.Digraph{"netlist": familyNetlists(t)[0].ToGraph(), "odd": odd} {
		if got, want := NormalizedAdjacency(g), cooAdjacency(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: direct assembly differs from the COO reference", name)
		}
	}
}

// cooAdjacency is Â assembled from COO triples by mat.NewCSR, which sorts
// them and sums duplicates: the reference for the in-place row fill.
func cooAdjacency(g *graph.Digraph) *mat.CSR {
	und := g.Undirected()
	n := und.N()
	var entries []mat.COO
	for u := 0; u < n; u++ {
		du := 1 / math.Sqrt(float64(1+len(und.Out(u))))
		entries = append(entries, mat.COO{Row: u, Col: u, Val: du * du})
		for _, v := range und.Out(u) {
			dv := 1 / math.Sqrt(float64(1+len(und.Out(v))))
			entries = append(entries, mat.COO{Row: u, Col: v, Val: du * dv})
		}
	}
	return mat.NewCSR(n, n, entries)
}

// familyNetlists generates one netlist per topology family at a quarter
// of its matrix preset's size.
func familyNetlists(t *testing.T) []*netlist.Netlist {
	t.Helper()
	var out []*netlist.Netlist
	for _, spec := range gen.FamilySpecs() {
		spec.LUT, spec.LUTRAM, spec.FF = spec.LUT/4, spec.LUTRAM/4, spec.FF/4
		spec.BRAM, spec.DSP = spec.BRAM/4, spec.DSP/4
		nl, err := gen.Generate(spec, fpga.NewZCU104())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, nl)
	}
	return out
}

// netlistSample wraps nl as a sample the way identification does:
// extracted features, standardized, over Â of the netlist graph.
func netlistSample(nl *netlist.Netlist) *Sample {
	set := features.Extract(nl, features.Config{Seed: 1})
	labels := make([]int, nl.NumCells())
	for _, c := range set.DSP {
		if nl.Cells[c].DatapathTruth {
			labels[c] = 1
		}
	}
	return &Sample{Name: nl.Name, Adj: NormalizedAdjacency(nl.ToGraph()),
		X: features.Standardize(set.X), Labels: labels, Mask: set.DSP}
}

// TestPredictMatchesForward checks that Predict, which computes only the
// rows its masked outputs read, returns every probability with the bits
// of the full forward pass's masked row, whatever the worker count.
func TestPredictMatchesForward(t *testing.T) {
	var samples []*Sample
	for _, nl := range familyNetlists(t) {
		samples = append(samples, netlistSample(nl))
	}
	// Edge cases: no masked node, and a masked node with no neighbours
	// (node 6 of the odd graph, masked with nodes that have some).
	samples = append(samples, &Sample{Name: "empty-mask", Adj: samples[0].Adj, X: samples[0].X,
		Labels: samples[0].Labels})
	odd := graph.NewDigraph(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}} {
		odd.AddEdge(e[0], e[1])
	}
	oddX := mat.NewDense(7, features.NumFeatures).Randn(rand.New(rand.NewSource(2)), 1)
	samples = append(samples, &Sample{Name: "isolated", Adj: NormalizedAdjacency(odd), X: oddX,
		Labels: make([]int, 7), Mask: []int{6, 3, 0}})

	cfg := Defaults(features.NumFeatures)
	cfg.Epochs = 3
	trained, _ := Train(cfg, samples[:1], nil)
	// The ring masks every node; its models take three features.
	ring := ringSample(24, 7)
	ringCfg := smallCfg()
	ringCfg.Epochs = 5
	ringTrained, _ := Train(ringCfg, []*Sample{ring}, nil)

	type pair struct {
		name string
		m    *Model
		s    *Sample
	}
	var pairs []pair
	for _, s := range samples {
		pairs = append(pairs, pair{"random/" + s.Name, NewModel(Defaults(features.NumFeatures)), s},
			pair{"trained/" + s.Name, trained, s})
	}
	pairs = append(pairs, pair{"random/ring", NewModel(smallCfg()), ring}, pair{"trained/ring", ringTrained, ring})

	for _, procs := range []int{1, 2, 8} {
		func() {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			for _, p := range pairs {
				classes, probs := p.m.Predict(p.s)
				if len(probs) != len(p.s.Mask) || len(classes) != len(p.s.Mask) {
					t.Fatalf("GOMAXPROCS=%d %s: %d probabilities for %d masked nodes", procs, p.name, len(probs), len(p.s.Mask))
				}
				prob := p.m.forward(fullOps(p.s), p.s.X, nil).prob
				for i, v := range p.s.Mask {
					if got, want := probs[i], prob.At(v, 1); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("GOMAXPROCS=%d %s node %d: Predict %v (%#x), full pass %v (%#x)",
							procs, p.name, v, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}()
	}
}

func TestForwardShapesAndSoftmax(t *testing.T) {
	s := ringSample(10, 1)
	m := NewModel(smallCfg())
	st := m.forward(fullOps(s), s.X, nil)
	if st.prob.R != 10 || st.prob.C != NumClasses {
		t.Fatalf("prob %dx%d", st.prob.R, st.prob.C)
	}
	for i := 0; i < st.prob.R; i++ {
		sum := st.prob.At(i, 0) + st.prob.At(i, 1)
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d probs sum to %v", i, sum)
		}
	}
}

// Finite-difference gradient check on every parameter of a tiny model.
func TestGradientCheck(t *testing.T) {
	s := ringSample(6, 2)
	cfg := Config{InputDim: 3, Hidden: 4, FC1: 3, FC2: 3, Dropout: 0,
		LR: 0.01, Epochs: 1, Seed: 5, WeightedLoss: true}
	m := NewModel(cfg)
	_, gW, gB := m.lossAndGrad(s, nil)

	lossAt := func() float64 {
		l, _, _ := m.lossAndGrad(s, nil)
		return l
	}
	const h = 1e-6
	for l := 0; l < numLayers; l++ {
		for i := 0; i < len(m.W[l].Data); i += 3 { // sample every 3rd entry
			orig := m.W[l].Data[i]
			m.W[l].Data[i] = orig + h
			lp := lossAt()
			m.W[l].Data[i] = orig - h
			lm := lossAt()
			m.W[l].Data[i] = orig
			num := (lp - lm) / (2 * h)
			ana := gW[l].Data[i]
			if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: numeric %v vs analytic %v", l, i, num, ana)
			}
		}
		for i := range m.B[l] {
			orig := m.B[l][i]
			m.B[l][i] = orig + h
			lp := lossAt()
			m.B[l][i] = orig - h
			lm := lossAt()
			m.B[l][i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-gB[l][i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d B[%d]: numeric %v vs analytic %v", l, i, num, gB[l][i])
			}
		}
	}
}

func TestTrainingLearnsSeparableTask(t *testing.T) {
	s := ringSample(40, 3)
	m, hist := Train(smallCfg(), []*Sample{s}, s)
	if len(hist) == 0 {
		t.Fatal("empty history")
	}
	if acc := m.Accuracy(s); acc < 0.9 {
		t.Fatalf("accuracy %v < 0.9 on separable task", acc)
	}
	// Loss must decrease overall.
	if !(hist[len(hist)-1].Loss < hist[0].Loss) {
		t.Fatalf("loss did not decrease: %v → %v", hist[0].Loss, hist[len(hist)-1].Loss)
	}
}

func TestClassWeights(t *testing.T) {
	s := ringSample(10, 4)
	// Make labels imbalanced: 8 zeros, 2 ones.
	for i := range s.Labels {
		if i < 8 {
			s.Labels[i] = 0
		} else {
			s.Labels[i] = 1
		}
	}
	w := classWeights(s)
	// w0 = 10/(2·8), w1 = 10/(2·2).
	if math.Abs(w[0]-0.625) > 1e-12 || math.Abs(w[1]-2.5) > 1e-12 {
		t.Fatalf("weights %v", w)
	}
	if !(w[1] > w[0]) {
		t.Fatal("minority class must weigh more")
	}
}

func TestDropoutOnlyInTraining(t *testing.T) {
	s := ringSample(12, 5)
	cfg := smallCfg()
	cfg.Dropout = 0.5
	m := NewModel(cfg)
	// Inference is deterministic.
	_, p1 := m.Predict(s)
	_, p2 := m.Predict(s)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("inference must not use dropout")
		}
	}
	// Training forward with rng differs between calls (dropout active).
	rng := rand.New(rand.NewSource(9))
	a := m.forward(fullOps(s), s.X, rng)
	b := m.forward(fullOps(s), s.X, rng)
	if a.act[0].MaxAbsDiff(b.act[0]) == 0 {
		t.Fatal("dropout appears inactive during training")
	}
}

func TestPredictProbabilitiesConsistent(t *testing.T) {
	s := ringSample(10, 6)
	m := NewModel(smallCfg())
	classes, probs := m.Predict(s)
	for i := range classes {
		if (probs[i] >= 0.5) != (classes[i] == 1) {
			t.Fatal("class/probability mismatch")
		}
	}
}
