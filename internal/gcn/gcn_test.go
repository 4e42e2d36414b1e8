package gcn

import (
	"math"
	"math/rand"
	"testing"

	"dsplacer/internal/graph"
	"dsplacer/internal/mat"
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
}

func TestForwardShapesAndSoftmax(t *testing.T) {
	s := ringSample(10, 1)
	m := NewModel(smallCfg())
	st := m.forward(s, nil)
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
	a := m.forward(s, rng)
	b := m.forward(s, rng)
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
