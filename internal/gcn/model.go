// Package gcn implements the datapath-DSP classifier of §III-A: a
// Kipf-style graph convolutional network with two graph-convolution layers
// (32 hidden units) followed by three fully connected layers and softmax,
// trained with a class-weighted cross-entropy loss, inverted dropout and
// Adam — the configuration of Fig. 3(c). Everything, including
// backpropagation, is implemented on the dense/sparse kernels of
// internal/mat; no external ML runtime is used.
package gcn

import (
	"fmt"
	"math"
	"math/rand"

	"dsplacer/internal/graph"
	"dsplacer/internal/mat"
)

// NumClasses distinguishes control-path (0) from datapath (1) DSPs.
const NumClasses = 2

// Config describes the network and training hyperparameters.
type Config struct {
	InputDim int     // feature width (features.NumFeatures)
	Hidden   int     // GCN hidden units (paper: 32)
	FC1, FC2 int     // widths of the first two FC layers
	Dropout  float64 // dropout probability on hidden activations
	LR       float64 // Adam learning rate
	Epochs   int
	Seed     int64
	// WeightedLoss enables the class-ratio weighted penalty of the paper
	// (higher penalty on minority-class mistakes).
	WeightedLoss bool
}

// Defaults returns the paper's configuration.
func Defaults(inputDim int) Config {
	return Config{
		InputDim: inputDim, Hidden: 32, FC1: 32, FC2: 16,
		Dropout: 0.3, LR: 0.01, Epochs: 300, Seed: 1, WeightedLoss: true,
	}
}

// numLayers: 2 graph-conv + 3 fully connected.
const numLayers = 5

// Model holds the learned parameters.
type Model struct {
	cfg Config
	W   [numLayers]*mat.Dense
	B   [numLayers][]float64
}

// layerDims returns (in, out) width of each layer.
func layerDims(c Config) [numLayers][2]int {
	return [numLayers][2]int{
		{c.InputDim, c.Hidden}, // GC1
		{c.Hidden, c.Hidden},   // GC2
		{c.Hidden, c.FC1},      // FC1
		{c.FC1, c.FC2},         // FC2
		{c.FC2, NumClasses},    // FC3 (logits)
	}
}

// NewModel initializes a model with Glorot-scaled random weights.
func NewModel(cfg Config) *Model {
	if cfg.InputDim <= 0 || cfg.Hidden <= 0 || cfg.FC1 <= 0 || cfg.FC2 <= 0 {
		panic(fmt.Sprintf("gcn: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg}
	for l, d := range layerDims(cfg) {
		std := math.Sqrt(2.0 / float64(d[0]+d[1]))
		m.W[l] = mat.NewDense(d[0], d[1]).Randn(rng, std)
		m.B[l] = make([]float64, d[1])
	}
	return m
}

// Sample is one labeled graph: the normalized adjacency, node features,
// per-node class labels and the mask of nodes that participate in the loss
// (DSP nodes).
type Sample struct {
	Name   string
	Adj    *mat.CSR
	X      *mat.Dense
	Labels []int // class per node; only mask entries are read
	Mask   []int // node ids with labels (DSP cells)
}

// NormalizedAdjacency builds Â = D^{-1/2}(A + I)D^{-1/2} over the
// symmetrized graph, the standard GCN propagation operator.
func NormalizedAdjacency(g *graph.Digraph) *mat.CSR {
	return NormalizedAdjacencyUndirected(g.Undirected())
}

// NormalizedAdjacencyUndirected is NormalizedAdjacency for a graph that
// Digraph.Undirected already symmetrized: und has no self-loops and every
// adjacency list is strictly ascending, so each CSR row is filled in place,
// with the self-loop merged in column order. It panics on any other graph.
func NormalizedAdjacencyUndirected(und *graph.Digraph) *mat.CSR {
	n := und.N()
	inv := make([]float64, n)
	nnz := n // one self-loop per row
	for u := 0; u < n; u++ {
		d := len(und.Out(u))
		nnz += d
		inv[u] = 1 / math.Sqrt(float64(1+d))
	}
	a := &mat.CSR{R: n, C: n, RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for u := 0; u < n; u++ {
		prev, self := -1, false
		for _, v := range und.Out(u) {
			if v <= prev || v == u {
				panic(fmt.Sprintf("gcn: adjacency of node %d is not ascending and self-loop-free", u))
			}
			if !self && v > u {
				a.ColIdx = append(a.ColIdx, u)
				a.Val = append(a.Val, inv[u]*inv[u])
				self = true
			}
			a.ColIdx = append(a.ColIdx, v)
			a.Val = append(a.Val, inv[u]*inv[v])
			prev = v
		}
		if !self {
			a.ColIdx = append(a.ColIdx, u)
			a.Val = append(a.Val, inv[u]*inv[u])
		}
		a.RowPtr[u+1] = len(a.ColIdx)
	}
	return a
}

// forwardState caches activations for backprop.
type forwardState struct {
	pre  [numLayers]*mat.Dense // pre-activation (after bias)
	act  [numLayers]*mat.Dense // post-activation (after ReLU/dropout)
	drop [numLayers]*mat.Dense // dropout masks (nil when not applied)
	agg  [2]*mat.Dense         // Â·input for the two GC layers
	prob *mat.Dense
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// forward runs the network with ops[l] as graph convolution l's
// aggregation operator: Â twice for the full pass, or the operators of
// receptiveField, whose product rows are a subset of the full pass's.
// When rng is non-nil, inverted dropout is applied to the two GC hidden
// activations (training mode).
func (m *Model) forward(ops [2]*mat.CSR, x *mat.Dense, rng *rand.Rand) *forwardState {
	st := &forwardState{}
	h := x
	for l := 0; l < numLayers; l++ {
		in := h
		if l < 2 { // graph convolution layers aggregate first
			st.agg[l] = ops[l].MulDensePar(in)
			in = st.agg[l]
		}
		z := in.Mul(m.W[l]).AddRowVec(m.B[l])
		st.pre[l] = z
		a := z
		if l < numLayers-1 {
			a = z.Apply(relu)
			if rng != nil && m.cfg.Dropout > 0 && l < 2 {
				mask := mat.NewDense(a.R, a.C)
				keep := 1 - m.cfg.Dropout
				for i := range mask.Data {
					if rng.Float64() < keep {
						mask.Data[i] = 1 / keep
					}
				}
				st.drop[l] = mask
				a = a.Hadamard(mask)
			}
		}
		st.act[l] = a
		h = a
	}
	st.prob = h.RowSoftmax()
	return st
}

// fullOps returns the aggregation operators of the full forward pass.
func fullOps(s *Sample) [2]*mat.CSR { return [2]*mat.CSR{s.Adj, s.Adj} }

// receptiveField returns the aggregation operators of a forward pass that
// computes only the masked rows. A masked node's output reads its own
// second-layer row, which reads the first-layer rows of the columns its Â
// row stores, which read X. So the first operator holds Â's rows of those
// columns (the masked rows' one-hop neighbourhood, in node order) over all
// of X, and the second holds Â's masked rows, in mask order, with each
// column renumbered to its row in the first. Every row keeps its stored
// entry order, so each product row sums the same terms in the same order
// as the full pass's row and has its bits.
func receptiveField(adj *mat.CSR, mask []int) [2]*mat.CSR {
	need := make([]bool, adj.C)
	for _, v := range mask {
		for _, c := range adj.ColIdx[adj.RowPtr[v]:adj.RowPtr[v+1]] {
			need[c] = true
		}
	}
	at := make([]int, adj.C)
	var hop []int
	for v, ok := range need {
		if ok {
			at[v] = len(hop)
			hop = append(hop, v)
		}
	}
	return [2]*mat.CSR{gatherRows(adj, hop, adj.C, nil), gatherRows(adj, mask, len(hop), at)}
}

// gatherRows returns a's listed rows as a len(rows)×cols CSR, each in its
// stored entry order, with column c renumbered to at[c] (kept when at is
// nil).
func gatherRows(a *mat.CSR, rows []int, cols int, at []int) *mat.CSR {
	nnz := 0
	for _, v := range rows {
		nnz += a.RowPtr[v+1] - a.RowPtr[v]
	}
	out := &mat.CSR{R: len(rows), C: cols, RowPtr: make([]int, len(rows)+1),
		ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for i, v := range rows {
		lo, hi := a.RowPtr[v], a.RowPtr[v+1]
		for _, c := range a.ColIdx[lo:hi] {
			if at != nil {
				c = at[c]
			}
			out.ColIdx = append(out.ColIdx, c)
		}
		out.Val = append(out.Val, a.Val[lo:hi]...)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// Predict returns the predicted class per masked node along with the
// datapath probability. It runs the first graph convolution on the masked
// rows' one-hop neighbourhood and the rest of the network on the masked
// rows alone (receptiveField), so its cost follows the DSPs' two-hop
// neighbourhood rather than the netlist, and every probability has the
// bits of the full pass's.
func (m *Model) Predict(s *Sample) (classes []int, probs []float64) {
	prob := m.forward(receptiveField(s.Adj, s.Mask), s.X, nil).prob
	classes = make([]int, len(s.Mask))
	probs = make([]float64, len(s.Mask))
	for i := range s.Mask {
		p := prob.At(i, 1)
		probs[i] = p
		if p >= 0.5 {
			classes[i] = 1
		}
	}
	return classes, probs
}

// Accuracy returns the fraction of masked nodes classified correctly.
func (m *Model) Accuracy(s *Sample) float64 {
	if len(s.Mask) == 0 {
		return 0
	}
	classes, _ := m.Predict(s)
	hit := 0
	for i, v := range s.Mask {
		if classes[i] == s.Labels[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(s.Mask))
}

// classWeights implements the paper's imbalance handling: weight of class c
// is total/(NumClasses·count_c), so minority-class errors cost more.
func classWeights(s *Sample) [NumClasses]float64 {
	var cnt [NumClasses]int
	for _, v := range s.Mask {
		cnt[s.Labels[v]]++
	}
	var w [NumClasses]float64
	for c := range w {
		if cnt[c] == 0 {
			w[c] = 0
			continue
		}
		w[c] = float64(len(s.Mask)) / (NumClasses * float64(cnt[c]))
	}
	return w
}

// lossAndGrad computes the weighted cross-entropy over masked nodes and the
// gradient with respect to every parameter, via full backprop.
func (m *Model) lossAndGrad(s *Sample, rng *rand.Rand) (float64, [numLayers]*mat.Dense, [numLayers][]float64) {
	st := m.forward(fullOps(s), s.X, rng)
	n := st.prob.R

	var w [NumClasses]float64
	if m.cfg.WeightedLoss {
		w = classWeights(s)
	} else {
		for c := range w {
			w[c] = 1
		}
	}

	// dL/dlogits = weight·(p - y)/|mask| at masked rows.
	gLogits := mat.NewDense(n, NumClasses)
	loss := 0.0
	inv := 1.0 / float64(len(s.Mask))
	for _, v := range s.Mask {
		y := s.Labels[v]
		p := st.prob.At(v, y)
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -w[y] * math.Log(p) * inv
		for c := 0; c < NumClasses; c++ {
			delta := st.prob.At(v, c)
			if c == y {
				delta -= 1
			}
			gLogits.Set(v, c, w[y]*delta*inv)
		}
	}

	var gW [numLayers]*mat.Dense
	var gB [numLayers][]float64
	g := gLogits
	for l := numLayers - 1; l >= 0; l-- {
		// Input that fed this layer's matmul.
		var in *mat.Dense
		if l < 2 {
			in = st.agg[l]
		} else {
			in = st.act[l-1]
		}
		gW[l] = in.T().Mul(g)
		gB[l] = g.ColSums()
		if l == 0 {
			break
		}
		// Backprop to the layer input.
		gIn := g.Mul(m.W[l].T())
		if l < 2 {
			// g flowed through Â·act[l-1]; Â is symmetric so Âᵀ = Â.
			gIn = s.Adj.MulDensePar(gIn)
		}
		// Through dropout and ReLU of layer l-1.
		if st.drop[l-1] != nil {
			gIn = gIn.Hadamard(st.drop[l-1])
		}
		pre := st.pre[l-1]
		for i, v := range pre.Data {
			if v <= 0 {
				gIn.Data[i] = 0
			}
		}
		g = gIn
	}
	return loss, gW, gB
}
