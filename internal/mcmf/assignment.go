package mcmf

import (
	"slices"

	"dsplacer/internal/heapq"
)

// Assigner solves sparse min-cost assignment problems: every row takes one
// of its candidate columns, no column is taken twice, and the sum of the
// chosen arcs' costs is least. It is the shortest-augmenting-path method
// for sparse assignment (Jonker and Volgenant, 1987) with a binary heap,
// the sparse form of the dense Hungarian reference in hungarian_test.go.
//
// Rows are matched one at a time, in index order. Row r's search is one
// Dijkstra run over reduced costs from r alone: a column's label is the
// cheapest way to give r a column through it, and a matched column passes
// its label on to its row, whose other arcs the search then relaxes. The
// search stops at the first free column it pops. Every column it settled
// before then has its price lowered by D − dist, D being the free
// column's label, and the matching is flipped along the path. Free columns
// keep price 0, and a matched row's dual is implicit: the cost of its
// matched arc minus that column's price, so the matched arc has reduced
// cost 0. As in Solver, a reduced cost that floating-point noise pushes
// below zero is clamped at 0.
//
// A search that empties its heap without reaching a free column proves
// that no assignment covers every row: one that did would differ from the
// current matching by an augmenting path from r. Solve then reports
// failure.
//
// Each Solve starts from an empty matching with zero prices; nothing but
// scratch storage carries over from one call to the next. The zero value
// is ready to use.
type Assigner struct {
	price   []float64 // column → price (dual); 0 while the column is free
	rowOf   []int32   // column → matched row, -1 when free
	colOf   []int32   // row → matched column
	rowCost []float64 // row → cost of its matched arc
	dist    []float64 // column → label in the current search
	pred    []int32   // column → row the label came from
	arcCost []float64 // column → cost of the arc that set the label
	seen    []int32   // column → last search that labelled it
	settled []int32   // columns the current search settled, in pop order
	pq      heapq.Heap
	pushes  uint32 // labels pushed by the current search, for FIFO ties
}

// Solve assigns each row i to one of the m columns cols[i], where
// costs[i][x] is the cost of giving row i column cols[i][x], so that no
// column is used twice and the total cost is least. It returns the column
// of every row and the total, summed over the rows in index order, or
// ok=false when no assignment covers every row. A row's list may repeat a
// column; the cheaper arc counts.
//
// When no two assignments tie exactly on total cost the optimum is unique,
// and Solve returns it whatever method found it. On a tie the rows' order
// decides, and within a search equal labels pop first-in, first-out, so a
// column labelled earlier wins; among a row's own arcs that is the one
// earlier in its list.
func (a *Assigner) Solve(m int, cols [][]int, costs [][]float64) (colOf []int, cost float64, ok bool) {
	n := len(cols)
	a.reset(n, m)
	for r := 0; r < n; r++ {
		if !a.augment(int32(r), int32(r+1), cols, costs) {
			return nil, 0, false
		}
	}
	colOf = make([]int, n)
	for i, j := range a.colOf {
		colOf[i] = int(j)
		cost += a.rowCost[i]
	}
	return colOf, cost, true
}

// reset sizes the scratch for n rows and m columns, reusing its storage,
// and empties the matching.
func (a *Assigner) reset(n, m int) {
	a.price = resize(a.price, m)
	a.rowOf = resize(a.rowOf, m)
	a.dist = resize(a.dist, m)
	a.pred = resize(a.pred, m)
	a.arcCost = resize(a.arcCost, m)
	a.seen = resize(a.seen, m)
	a.colOf = resize(a.colOf, n)
	a.rowCost = resize(a.rowCost, n)
	clear(a.price)
	clear(a.seen) // searches are numbered from 1
	for j := range a.rowOf {
		a.rowOf[j] = -1
	}
	for i := range a.colOf {
		a.colOf[i] = -1
	}
	a.pq.Grow(m)
}

// augment matches free row r by one shortest-path search; search numbers
// the search for the seen stamps. It reports false when no free column is
// reachable.
func (a *Assigner) augment(r, search int32, cols [][]int, costs [][]float64) bool {
	a.pq.Reset()
	a.pushes = 0
	a.settled = a.settled[:0]
	// Row r's dual is 0 during its search, so its arcs label their columns
	// with cost − price. Those first labels may be negative; every arc
	// relaxed after them has a non-negative reduced cost.
	a.relax(r, 0, 0, false, cols[r], costs[r], search)
	free := int32(-1)
	for a.pq.Len() > 0 {
		it := a.pq.Pop()
		j := it.ID
		if it.Dist > a.dist[j] {
			continue // stale entry
		}
		i := a.rowOf[j]
		if i < 0 {
			free = j
			break
		}
		a.settled = append(a.settled, j)
		// Row i takes column j's label through its matched arc, whose
		// reduced cost is 0.
		a.relax(i, it.Dist, a.rowCost[i]-a.price[j], true, cols[i], costs[i], search)
	}
	if free < 0 {
		return false
	}
	d := a.dist[free]
	for _, j := range a.settled {
		a.price[j] -= d - a.dist[j]
	}
	for j := free; ; {
		i := a.pred[j]
		next := a.colOf[i]
		a.rowOf[j] = i
		a.colOf[i] = j
		a.rowCost[i] = a.arcCost[j]
		if i == r {
			return true
		}
		j = next
	}
}

// relax offers each arc of row i, whose label is du and dual ui, to its
// column: the column's candidate label is du plus the arc's reduced cost
// cost − ui − price. clamp sets a negative reduced cost to 0; it is noise
// on every row but the search's own, whose arcs set the first labels.
func (a *Assigner) relax(i int32, du, ui float64, clamp bool, cols []int, costs []float64, search int32) {
	for x, j := range cols {
		c := costs[x]
		rc := c - ui - a.price[j]
		if clamp && rc < 0 {
			rc = 0
		}
		nd := du + rc
		if a.seen[j] != search || nd < a.dist[j] {
			a.seen[j] = search
			a.dist[j] = nd
			a.pred[j] = i
			a.arcCost[j] = c
			a.pushes++
			a.pq.Push(heapq.Item{Dist: nd, ID: int32(j), Seq: a.pushes})
		}
	}
}

// resize returns x with length n, keeping its storage when it is large
// enough and growing it geometrically otherwise. The contents are
// unspecified.
func resize[T any](x []T, n int) []T {
	if cap(x) < n {
		return slices.Grow(x[:0], n)[:n]
	}
	return x[:n]
}
