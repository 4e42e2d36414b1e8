package gcn

import (
	"math"
	"math/rand"
)

// adamState holds first/second moment estimates per parameter tensor.
type adamState struct {
	mW, vW [numLayers]([]float64)
	mB, vB [numLayers]([]float64)
	t      int
}

func newAdam(m *Model) *adamState {
	a := &adamState{}
	for l := 0; l < numLayers; l++ {
		a.mW[l] = make([]float64, len(m.W[l].Data))
		a.vW[l] = make([]float64, len(m.W[l].Data))
		a.mB[l] = make([]float64, len(m.B[l]))
		a.vB[l] = make([]float64, len(m.B[l]))
	}
	return a
}

const (
	beta1 = 0.9
	beta2 = 0.999
	adamE = 1e-8
)

func adamStep(p, g, mm, vv []float64, lr float64, t int) {
	c1 := 1 - math.Pow(beta1, float64(t))
	c2 := 1 - math.Pow(beta2, float64(t))
	for i := range p {
		mm[i] = beta1*mm[i] + (1-beta1)*g[i]
		vv[i] = beta2*vv[i] + (1-beta2)*g[i]*g[i]
		p[i] -= lr * (mm[i] / c1) / (math.Sqrt(vv[i]/c2) + adamE)
	}
}

// EpochStats records Fig. 7(b)-style accuracy trajectories.
type EpochStats struct {
	Epoch    int
	Loss     float64
	TrainAcc float64
	TestAcc  float64
}

// History is the per-epoch training record.
type History []EpochStats

// Train fits a fresh model on the training samples, evaluating train/test
// accuracy each epoch (test may be nil). Full-batch gradient descent per
// sample graph with Adam, as is standard for transductive GCNs.
func Train(cfg Config, train []*Sample, test *Sample) (*Model, History) {
	m := NewModel(cfg)
	opt := newAdam(m)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	var hist History
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		totalLoss := 0.0
		for _, s := range train {
			loss, gW, gB := m.lossAndGrad(s, rng)
			totalLoss += loss
			opt.t++
			for l := 0; l < numLayers; l++ {
				adamStep(m.W[l].Data, gW[l].Data, opt.mW[l], opt.vW[l], cfg.LR, opt.t)
				adamStep(m.B[l], gB[l], opt.mB[l], opt.vB[l], cfg.LR, opt.t)
			}
		}
		st := EpochStats{Epoch: epoch, Loss: totalLoss / float64(len(train))}
		if epoch%10 == 0 || epoch == 1 || epoch == cfg.Epochs {
			st.TrainAcc = meanAccuracy(m, train)
			if test != nil {
				st.TestAcc = m.Accuracy(test)
			}
			hist = append(hist, st)
		}
	}
	return m, hist
}

func meanAccuracy(m *Model, samples []*Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += m.Accuracy(s)
	}
	return sum / float64(len(samples))
}
