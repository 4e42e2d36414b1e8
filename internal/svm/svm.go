// Package svm implements a linear support-vector machine trained with the
// Pegasos stochastic sub-gradient algorithm. It stands in for PADE's
// SVM-based datapath classifier [28], the baseline of Fig. 7(a): PADE uses
// only local automorphism-derived regularity features, so the comparison
// harness feeds this model the local feature columns (degrees, feedback
// membership) while the GCN additionally sees the global centralities.
package svm

import (
	"fmt"
	"math"
	"math/rand"
)

// Model is a linear classifier sign(w·x + b).
type Model struct {
	W []float64
	B float64
}

// Config tunes Pegasos training.
type Config struct {
	Lambda float64 // regularization strength (default 1e-3)
	Epochs int     // passes over the data (default 60)
	Seed   int64
	// ClassWeighted scales each example's hinge loss by the inverse class
	// frequency, mirroring the weighted loss used by the GCN.
	ClassWeighted bool
}

func (c Config) withDefaults() Config {
	if c.Lambda == 0 {
		c.Lambda = 1e-3
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	return c
}

// checkMatrix validates a design matrix: consistent row width and every
// entry finite. Non-finite inputs would silently poison the weight vector
// (one NaN times any learning rate is NaN forever), so they are rejected up
// front instead of surfacing as an unusable model.
func checkMatrix(X [][]float64) (int, error) {
	if len(X) == 0 {
		return 0, fmt.Errorf("svm: empty training set")
	}
	d := len(X[0])
	for i, r := range X {
		if len(r) != d {
			return 0, fmt.Errorf("svm: row %d has %d features, want %d", i, len(r), d)
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("svm: row %d feature %d is not finite (%v)", i, j, v)
			}
		}
	}
	return d, nil
}

// Train fits a linear SVM on rows X with labels y ∈ {0,1}.
func Train(X [][]float64, y []int, cfg Config) (*Model, error) {
	d, err := checkMatrix(X)
	if err != nil {
		return nil, err
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("svm: %d rows vs %d labels", len(X), len(y))
	}
	for i, c := range y {
		if c != 0 && c != 1 {
			return nil, fmt.Errorf("svm: label %d is %d, want 0 or 1", i, c)
		}
	}
	cfg = cfg.withDefaults()

	var weight [2]float64
	weight[0], weight[1] = 1, 1
	if cfg.ClassWeighted {
		var cnt [2]int
		for _, c := range y {
			cnt[c]++
		}
		for c := 0; c < 2; c++ {
			if cnt[c] > 0 {
				weight[c] = float64(len(y)) / (2 * float64(cnt[c]))
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	w := make([]float64, d)
	b := 0.0
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, i := range rng.Perm(len(X)) {
			t++
			eta := 1 / (cfg.Lambda * float64(t))
			yi := float64(2*y[i] - 1) // {-1,+1}
			margin := yi * (dot(w, X[i]) + b)
			// Regularization shrink.
			for j := range w {
				w[j] *= 1 - eta*cfg.Lambda
			}
			if margin < 1 {
				scale := eta * weight[y[i]] * yi
				for j := range w {
					w[j] += scale * X[i][j]
				}
				b += scale
			}
		}
	}
	return &Model{W: w, B: b}, nil
}

// Decision returns w·x + b.
func (m *Model) Decision(x []float64) float64 { return dot(m.W, x) + m.B }

// Predict returns the class in {0,1}.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return 0
}

// Accuracy evaluates the fraction of correct predictions.
func (m *Model) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	hit := 0
	for i, x := range X {
		if m.Predict(x) == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(X))
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Standardize z-scores the rows' columns in place using the provided
// training statistics, returning means and stds computed when stats is nil.
//
// The transform is guarded at both ends of the numeric range: non-finite
// entries are excluded from the computed statistics and standardize to 0
// (the column mean), and zero-variance columns — a constant feature, or a
// single-sample fit where every column is constant — standardize to 0
// instead of dividing by (near-)zero. A degenerate input therefore yields
// all-zero columns, never NaN weights downstream.
func Standardize(X [][]float64, means, stds []float64) ([]float64, []float64) {
	if len(X) == 0 {
		return means, stds
	}
	d := len(X[0])
	if means == nil {
		means = make([]float64, d)
		stds = make([]float64, d)
		for j := 0; j < d; j++ {
			n := 0
			for _, r := range X {
				if v := r[j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
					means[j] += v
					n++
				}
			}
			if n == 0 {
				continue // all-garbage column: mean 0, std 0 → zeros out
			}
			means[j] /= float64(n)
			for _, r := range X {
				if v := r[j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
					diff := v - means[j]
					stds[j] += diff * diff
				}
			}
			stds[j] = math.Sqrt(stds[j] / float64(n))
		}
	}
	for _, r := range X {
		for j := 0; j < d; j++ {
			v := r[j]
			if math.IsNaN(v) || math.IsInf(v, 0) || stds[j] <= 1e-12 {
				r[j] = 0
				continue
			}
			r[j] = (v - means[j]) / stds[j]
		}
	}
	return means, stds
}
