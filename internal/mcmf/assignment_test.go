package mcmf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomInstance draws an assignment instance of 1–30 rows and up to 20
// spare columns. A sparse instance gives each row 1–8 distinct candidate
// columns; a dense one gives every row every column, in shuffled order.
// Integer costs (0–9) tie often; continuous ones (possibly negative) do
// not.
func randomInstance(rng *rand.Rand, dense, integer bool) (m int, cols [][]int, costs [][]float64) {
	n := 1 + rng.Intn(30)
	m = n + rng.Intn(21)
	cols = make([][]int, n)
	costs = make([][]float64, n)
	for i := range cols {
		k := m
		if !dense {
			k = min(1+rng.Intn(8), m)
		}
		cols[i] = rng.Perm(m)[:k]
		for range cols[i] {
			c := rng.Float64()*100 - 20
			if integer {
				c = float64(rng.Intn(10))
			}
			costs[i] = append(costs[i], c)
		}
	}
	return m, cols, costs
}

// flowAssign solves the instance as a min-cost flow with Solver and
// returns the column of every row (nil when the flow is short of n) and
// the flow's cost.
func flowAssign(m int, cols [][]int, costs [][]float64) ([]int, float64) {
	n := len(cols)
	g := NewSolver(n + m + 2)
	src, sink := 0, n+m+1
	refs := make([][]ArcID, n)
	for i := range cols {
		g.AddEdge(src, 1+i, 1, 0)
		for x, j := range cols[i] {
			refs[i] = append(refs[i], g.AddEdge(1+i, 1+n+j, 1, costs[i][x]))
		}
	}
	for j := 0; j < m; j++ {
		g.AddEdge(1+n+j, sink, 1, 0)
	}
	flow, cost := g.Solve(src, sink, int64(n))
	if flow < int64(n) {
		return nil, cost
	}
	colOf := make([]int, n)
	for i := range refs {
		for x, r := range refs[i] {
			if g.Flow(r) == 1 {
				colOf[i] = cols[i][x]
			}
		}
	}
	return colOf, cost
}

// checkInjection requires colOf to give every row one of its candidates,
// no column twice, and cost to be their sum in row order.
func checkInjection(t *testing.T, name string, cols [][]int, costs [][]float64, colOf []int, cost float64) {
	t.Helper()
	used := make(map[int]bool)
	sum := 0.0
	for i, j := range colOf {
		x := -1
		for y, c := range cols[i] {
			if c == j && (x < 0 || costs[i][y] < costs[i][x]) {
				x = y
			}
		}
		if x < 0 {
			t.Fatalf("%s: row %d got column %d, not a candidate", name, i, j)
		}
		if used[j] {
			t.Fatalf("%s: column %d used twice", name, j)
		}
		used[j] = true
		sum += costs[i][x]
	}
	if sum != cost {
		t.Fatalf("%s: cost %v, row-order sum of the chosen arcs %v", name, cost, sum)
	}
}

func sameCost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// TestAssignerMatchesFlow solves 4,000 random instances with the Assigner
// and with a min-cost flow (and the Hungarian reference on the dense
// ones). It requires the same feasibility verdict and the same optimal
// cost, and, on continuous costs, where the optimum is unique, the same
// assignment; on integer costs, which tie, a valid injection. One Assigner
// solves every instance in turn and must give what a fresh one gives, so
// no scratch state leaks from one instance into the next.
func TestAssignerMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var shared Assigner
	infeasible := 0
	for seed := 0; seed < 4000; seed++ {
		dense, integer := seed%4 == 0, seed%3 == 0
		m, cols, costs := randomInstance(rng, dense, integer)
		name := fmt.Sprintf("seed %d (dense=%v integer=%v)", seed, dense, integer)

		colOf, cost, ok := shared.Solve(m, cols, costs)
		var fresh Assigner
		freshCol, freshCost, freshOK := fresh.Solve(m, cols, costs)
		if ok != freshOK || cost != freshCost || fmt.Sprint(colOf) != fmt.Sprint(freshCol) {
			t.Fatalf("%s: reused solver (%v, %v, %v) != fresh (%v, %v, %v)",
				name, ok, cost, colOf, freshOK, freshCost, freshCol)
		}

		flowCol, flowCost := flowAssign(m, cols, costs)
		if ok != (flowCol != nil) {
			t.Fatalf("%s: assigner feasible=%v, flow feasible=%v", name, ok, flowCol != nil)
		}
		if !ok {
			infeasible++
			continue
		}
		checkInjection(t, name, cols, costs, colOf, cost)
		if !sameCost(cost, flowCost) {
			t.Fatalf("%s: cost %v, flow %v", name, cost, flowCost)
		}
		if !integer && fmt.Sprint(colOf) != fmt.Sprint(flowCol) {
			t.Fatalf("%s: assignment %v, flow %v", name, colOf, flowCol)
		}
		if dense {
			matrix := make([][]float64, len(cols))
			for i := range cols {
				matrix[i] = make([]float64, m)
				for x, j := range cols[i] {
					matrix[i][j] = costs[i][x]
				}
			}
			_, hCost, err := hungarianSolve(matrix)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCost(cost, hCost) {
				t.Fatalf("%s: cost %v, Hungarian %v", name, cost, hCost)
			}
		}
	}
	// Sparse rows of one to eight arcs leave some instances without a
	// perfect assignment; both verdicts must have been exercised.
	if infeasible == 0 || infeasible == 4000 {
		t.Fatalf("%d of 4000 instances infeasible", infeasible)
	}
}

// TestAssignerSmall pins hand-checked answers: the cheaper total wins over
// the greedy first choice, a repeated column's cheaper arc counts, an
// exact tie goes to the earlier candidate, a column wanted by two rows
// with no alternative is infeasible, and an empty problem is solved
// trivially.
func TestAssignerSmall(t *testing.T) {
	var a Assigner
	// Row 0 alone would take column 0 (cost 1), but then row 1 pays 10:
	// the optimum gives row 0 column 1 (cost 2) and row 1 column 0 (3).
	colOf, cost, ok := a.Solve(2, [][]int{{0, 1}, {0, 1}}, [][]float64{{1, 2}, {3, 10}})
	if !ok || cost != 5 || colOf[0] != 1 || colOf[1] != 0 {
		t.Fatalf("got %v %v %v, want [1 0] 5", colOf, cost, ok)
	}
	colOf, cost, ok = a.Solve(3, [][]int{{2, 2, 1}}, [][]float64{{4, 1, 3}})
	if !ok || cost != 1 || colOf[0] != 2 {
		t.Fatalf("got %v %v %v, want [2] 1", colOf, cost, ok)
	}
	// Row 1's candidates all cost 0 and column 0 is taken: of the free
	// columns 2 and 1 it takes 2, listed first. container/heap's order
	// among equal labels would pop column 1 first.
	colOf, _, ok = a.Solve(3, [][]int{{0}, {0, 2, 1}}, [][]float64{{0}, {0, 0, 0}})
	if !ok || colOf[0] != 0 || colOf[1] != 2 {
		t.Fatalf("got %v %v, want [0 2]", colOf, ok)
	}
	if _, _, ok := a.Solve(3, [][]int{{1}, {0, 1}, {1}}, [][]float64{{0}, {0, 0}, {0}}); ok {
		t.Fatal("rows 0 and 2 share their only column, yet the solve succeeded")
	}
	if colOf, cost, ok := a.Solve(5, nil, nil); !ok || len(colOf) != 0 || cost != 0 {
		t.Fatalf("empty problem: %v %v %v", colOf, cost, ok)
	}
}
