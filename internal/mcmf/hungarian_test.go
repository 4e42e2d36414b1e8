package mcmf

// This file carries the O(n³) Hungarian (Kuhn–Munkres) algorithm for the
// rectangular assignment problem: an exact, flow-free solver that serves as
// the equivalence oracle for the min-cost-flow solver
// (TestEquivalenceVsHungarian), together with its own tests.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// hungarianSolve assigns each of n rows to one of m columns (n ≤ m)
// minimizing the total cost. cost[i][j] is the cost of assigning row i to
// column j. Returns the column per row and the optimal total cost.
func hungarianSolve(cost [][]float64) ([]int, float64, error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	if m < n {
		return nil, 0, fmt.Errorf("hungarian: %d rows exceed %d columns", n, m)
	}
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("hungarian: ragged row %d", i)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("hungarian: non-finite cost in row %d", i)
			}
		}
	}

	// Jonker-Volgenant style shortest augmenting path formulation with
	// potentials, 1-indexed internal arrays (the classic e-maxx layout).
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row matched to column j (0 = none)
	way := make([]int, m+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	assign := make([]int, n)
	total := 0.0
	for j := 1; j <= m; j++ {
		if p[j] != 0 {
			assign[p[j]-1] = j - 1
			total += cost[p[j]-1][j-1]
		}
	}
	return assign, total, nil
}

func TestHungarianSimpleSquare(t *testing.T) {
	cost := [][]float64{
		{1, 10, 10},
		{10, 1, 10},
		{10, 10, 1},
	}
	assign, total, err := hungarianSolve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total=%v", total)
	}
	for i, j := range assign {
		if i != j {
			t.Fatalf("assign=%v", assign)
		}
	}
}

func TestHungarianRectangular(t *testing.T) {
	// 2 rows, 4 columns: best picks columns 3 and 0.
	cost := [][]float64{
		{5, 9, 9, 1},
		{2, 9, 9, 9},
	}
	assign, total, err := hungarianSolve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || assign[0] != 3 || assign[1] != 0 {
		t.Fatalf("assign=%v total=%v", assign, total)
	}
}

func TestHungarianErrors(t *testing.T) {
	if _, _, err := hungarianSolve([][]float64{{1}, {2}}); err == nil {
		t.Fatal("rows > cols accepted")
	}
	if _, _, err := hungarianSolve([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged accepted")
	}
	if _, _, err := hungarianSolve([][]float64{{math.NaN(), 1}}); err == nil {
		t.Fatal("NaN accepted")
	}
	if a, c, err := hungarianSolve(nil); err != nil || a != nil || c != 0 {
		t.Fatal("empty problem mishandled")
	}
}

// Property: Hungarian matches the MCMF bipartite assignment on random
// rectangular instances, and the assignment is a valid injection.
func TestHungarianMatchesMCMF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(4)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(100))
			}
		}
		assign, total, err := hungarianSolve(cost)
		if err != nil {
			return false
		}
		used := map[int]bool{}
		check := 0.0
		for i, j := range assign {
			if j < 0 || j >= m || used[j] {
				return false
			}
			used[j] = true
			check += cost[i][j]
		}
		if math.Abs(check-total) > 1e-9 {
			return false
		}
		// MCMF oracle.
		g := NewSolver(n + m + 2)
		src, sink := 0, n+m+1
		for i := 0; i < n; i++ {
			g.AddEdge(src, 1+i, 1, 0)
			for j := 0; j < m; j++ {
				g.AddEdge(1+i, 1+n+j, 1, cost[i][j])
			}
		}
		for j := 0; j < m; j++ {
			g.AddEdge(1+n+j, sink, 1, 0)
		}
		flow, mcmfCost := g.Solve(src, sink, int64(n))
		return flow == int64(n) && math.Abs(mcmfCost-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
