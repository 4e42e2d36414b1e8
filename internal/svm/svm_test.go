package svm

import (
	"math"
	"math/rand"
	"testing"
)

// blob generates two Gaussian blobs in d dims separated along axis 0.
func blob(n, d int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		cls := i % 2
		y[i] = cls
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 0.4
		}
		row[0] += float64(2*cls-1) * 1.5
		X[i] = row
	}
	return X, y
}

func TestLearnsSeparableBlobs(t *testing.T) {
	X, y := blob(200, 3, 1)
	m, err := Train(X, y, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(X, y); acc < 0.95 {
		t.Fatalf("accuracy %v < 0.95", acc)
	}
}

func TestGeneralizes(t *testing.T) {
	Xtr, ytr := blob(300, 4, 3)
	Xte, yte := blob(100, 4, 4)
	m, err := Train(Xtr, ytr, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(Xte, yte); acc < 0.9 {
		t.Fatalf("test accuracy %v < 0.9", acc)
	}
}

func TestClassWeightedImproveMinorityRecall(t *testing.T) {
	// 95/5 imbalance; weighted training must not collapse to majority.
	rng := rand.New(rand.NewSource(6))
	var X [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		cls := 0
		if i%20 == 0 {
			cls = 1
		}
		X = append(X, []float64{float64(2*cls-1)*1.2 + rng.NormFloat64()*0.4, rng.NormFloat64()})
		y = append(y, cls)
	}
	m, err := Train(X, y, Config{Seed: 7, ClassWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	minHit, minTot := 0, 0
	for i, x := range X {
		if y[i] == 1 {
			minTot++
			if m.Predict(x) == 1 {
				minHit++
			}
		}
	}
	if float64(minHit)/float64(minTot) < 0.7 {
		t.Fatalf("minority recall %d/%d too low", minHit, minTot)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestDecisionPredictConsistency(t *testing.T) {
	m := &Model{W: []float64{1, -1}, B: 0.5}
	if m.Predict([]float64{1, 0}) != 1 {
		t.Fatal("positive decision must predict 1")
	}
	if m.Predict([]float64{-2, 0}) != 0 {
		t.Fatal("negative decision must predict 0")
	}
}

func TestTrainRejectsNonFinite(t *testing.T) {
	cases := map[string][][]float64{
		"nan":  {{1, math.NaN()}, {0, 1}},
		"+inf": {{1, 2}, {math.Inf(1), 1}},
		"-inf": {{math.Inf(-1), 2}, {0, 1}},
	}
	for name, X := range cases {
		if _, err := Train(X, []int{0, 1}, Config{}); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0, 2}, Config{}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func allFinite(t *testing.T, name string, vs ...[]float64) {
	t.Helper()
	for _, v := range vs {
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s[%d] = %v is not finite", name, i, x)
			}
		}
	}
}

// Standardize must not let one poisoned entry corrupt a whole column's
// statistics: non-finite entries are excluded from mean/std and map to 0.
func TestStandardizeNonFiniteGuards(t *testing.T) {
	X := [][]float64{{10, math.NaN()}, {20, 1}, {30, math.Inf(1)}, {40, 3}}
	means, stds := Standardize(X, nil, nil)
	allFinite(t, "means", means)
	allFinite(t, "stds", stds)
	if means[1] != 2 {
		t.Fatalf("poisoned column mean %v, want 2 (finite entries only)", means[1])
	}
	for i, r := range X {
		allFinite(t, "row", r)
		if (i == 0 || i == 2) && r[1] != 0 {
			t.Fatalf("non-finite entry standardized to %v, want 0", r[1])
		}
	}
	// All-garbage column: zero stats, zero output.
	Z := [][]float64{{math.NaN()}, {math.Inf(-1)}}
	m2, s2 := Standardize(Z, nil, nil)
	if m2[0] != 0 || s2[0] != 0 || Z[0][0] != 0 || Z[1][0] != 0 {
		t.Fatalf("all-garbage column: means=%v stds=%v rows=%v", m2, s2, Z)
	}
}

func TestStandardize(t *testing.T) {
	X := [][]float64{{10, 5}, {20, 5}, {30, 5}}
	means, stds := Standardize(X, nil, nil)
	if means[0] != 20 || stds[1] != 0 {
		t.Fatalf("means=%v stds=%v", means, stds)
	}
	if X[0][0] >= 0 || X[2][0] <= 0 {
		t.Fatal("column 0 not centered")
	}
	if X[1][1] != 0 {
		t.Fatal("constant column must map to 0")
	}
	// Applying train stats to new data.
	Y := [][]float64{{20, 5}}
	Standardize(Y, means, stds)
	if Y[0][0] != 0 {
		t.Fatalf("reused stats wrong: %v", Y[0][0])
	}
}
