// Package heapq is the repository's shared non-boxing priority queue: a
// binary min-heap of (Dist, ID, Seq) items stored in one flat slice, used
// by every Dijkstra loop (the reduced-cost searches of both mcmf solvers,
// the maze router's congestion search). It replaces the per-call container/heap
// queues those loops used to build, which boxed every pushed item into an
// interface{} — one heap allocation per relaxation, the single largest
// allocation source in the placement inner loop.
//
// The sift-up/sift-down algorithm and the comparison (strictly-less on
// Dist, never on ID) replicate container/heap exactly, so a loop ported
// from container/heap pops items — including equal-priority ties — in the
// identical order and produces bit-identical results. Do not "improve"
// that tie behaviour: augmenting-path selection in the min-cost flow
// solver is tie-sensitive, and the determinism contract of the placement
// pipeline (same output at any GOMAXPROCS, stable across refactors) leans
// on this order. A caller that wants another order among equal Dist sets
// Item.Seq; the assignment solver numbers its pushes so that ties pop
// first-in, first-out.
package heapq

// Item is one queue entry: a float64 priority, a caller-defined id (node
// index, bin index, ...) and a tie-breaker.
type Item struct {
	Dist float64
	ID   int32
	// Seq orders items of equal Dist: the smaller Seq pops first. Items
	// equal in both pop in container/heap's order, so a caller that leaves
	// Seq at 0 gets exactly that order.
	Seq uint32
}

// Heap is a binary min-heap of Items. The zero value is an empty heap
// ready for use. Reset keeps the backing slice, so a Heap embedded in a
// solver amortizes its allocation across calls.
type Heap struct {
	items []Item
}

// Len returns the number of queued items.
func (h *Heap) Len() int { return len(h.items) }

// Reset empties the heap, retaining capacity.
func (h *Heap) Reset() { h.items = h.items[:0] }

// Grow pre-allocates capacity for at least n items.
func (h *Heap) Grow(n int) {
	if cap(h.items) < n {
		items := make([]Item, len(h.items), n)
		copy(items, h.items)
		h.items = items
	}
}

// Push adds an item, restoring the heap order (container/heap's Push:
// append then sift up).
func (h *Heap) Push(it Item) {
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum item (container/heap's Pop: swap
// root with last, sift the new root down over the shortened heap, detach
// the old root from the tail).
func (h *Heap) Pop() Item {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	it := h.items[n]
	h.items = h.items[:n]
	return it
}

func (h *Heap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *Heap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow, as in container/heap
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}

// less orders by Dist, then by Seq.
func (h *Heap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.Seq < b.Seq)
}
