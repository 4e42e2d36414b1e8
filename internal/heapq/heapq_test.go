package heapq

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// refItem / refPQ is a verbatim container/heap queue with the same
// dist-only Less the old mcmf and maze-router queues used. The whole point
// of package heapq is to pop in the identical order, ties included, so the
// test drives both with the same operation sequence and demands equality.
type refItem struct {
	dist float64
	id   int32
}
type refPQ []refItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func TestEmptyAndSingle(t *testing.T) {
	var h Heap
	if h.Len() != 0 {
		t.Fatal("fresh heap not empty")
	}
	h.Push(Item{Dist: 3, ID: 7})
	if h.Len() != 1 {
		t.Fatal("len after push")
	}
	if it := h.Pop(); it.Dist != 3 || it.ID != 7 {
		t.Fatalf("got %+v", it)
	}
	if h.Len() != 0 {
		t.Fatal("len after pop")
	}
}

func TestSortedDrain(t *testing.T) {
	var h Heap
	vals := []float64{5, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for i, v := range vals {
		h.Push(Item{Dist: v, ID: int32(i)})
	}
	prev := -1.0
	for h.Len() > 0 {
		it := h.Pop()
		if it.Dist < prev {
			t.Fatalf("out of order: %v after %v", it.Dist, prev)
		}
		prev = it.Dist
	}
}

// TestSeqBreaksTies pushes items whose Dist values tie heavily, numbered
// in push order, and requires them to pop by Dist and then by Seq.
func TestSeqBreaksTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Heap
	for seq := uint32(1); seq <= 500; seq++ {
		h.Push(Item{Dist: float64(rng.Intn(5)), ID: int32(rng.Intn(100)), Seq: seq})
		if seq%7 == 0 {
			h.Pop()
		}
	}
	prev := h.Pop()
	for h.Len() > 0 {
		it := h.Pop()
		if it.Dist < prev.Dist || (it.Dist == prev.Dist && it.Seq < prev.Seq) {
			t.Fatalf("(%v, %d) popped after (%v, %d)", it.Dist, it.Seq, prev.Dist, prev.Seq)
		}
		prev = it
	}
}

// Property: under any interleaved push/pop sequence — with heavy exact-tie
// pressure from quantized priorities — the pop stream (priority AND id)
// matches container/heap exactly.
func TestMatchesContainerHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Heap
		ref := &refPQ{}
		heap.Init(ref)
		for op := 0; op < 400; op++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				// Quantized dist: duplicates are common, exercising ties.
				it := Item{Dist: float64(rng.Intn(8)), ID: int32(op)}
				h.Push(it)
				heap.Push(ref, refItem{dist: it.Dist, id: it.ID})
			} else {
				got := h.Pop()
				want := heap.Pop(ref).(refItem)
				if got.Dist != want.dist || got.ID != want.id {
					return false
				}
			}
			if h.Len() != ref.Len() {
				return false
			}
		}
		for ref.Len() > 0 {
			got := h.Pop()
			want := heap.Pop(ref).(refItem)
			if got.Dist != want.dist || got.ID != want.id {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	var h Heap
	h.Grow(64)
	for i := 0; i < 50; i++ {
		h.Push(Item{Dist: float64(i)})
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset left items")
	}
	if cap(h.items) < 50 {
		t.Fatal("reset dropped capacity")
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	var h Heap
	h.Grow(128)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			h.Push(Item{Dist: float64(i % 7), ID: int32(i)})
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v per run", allocs)
	}
}
