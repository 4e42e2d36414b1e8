package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0)=%d want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1)=%d want 1", w)
	}
	max := runtime.GOMAXPROCS(0)
	if w := Workers(1 << 20); w != max {
		t.Fatalf("Workers(big)=%d want GOMAXPROCS=%d", w, max)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	const n = 10000
	hits := make([]int32, n)
	ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

// TestForEachWorkerBlocks pins the block-claim schedule: every index runs
// exactly once, one worker runs each block, and a worker's indices arrive in
// strictly ascending order (within a block and across the blocks it
// claims), at worker counts 1, 2 and 8 and sizes around the block rule.
func TestForEachWorkerBlocks(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{1, 2, 31, 32, 33, 1000, 100003} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				workers := Workers(n)
				seen := make([][]int, workers) // each worker appends to its own slice
				owner := make([]int32, n)
				hits := make([]int32, n)
				ForEachWorker(n, func(w, i int) {
					seen[w] = append(seen[w], i)
					owner[i] = int32(w)
					atomic.AddInt32(&hits[i], 1)
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("index %d ran %d times", i, h)
					}
				}
				for w, idx := range seen {
					for k := 1; k < len(idx); k++ {
						if idx[k] <= idx[k-1] {
							t.Fatalf("worker %d ran %d after %d", w, idx[k], idx[k-1])
						}
					}
				}
				block := blockSize(n, workers)
				for i := range owner {
					if first := i / block * block; owner[i] != owner[first] {
						t.Fatalf("block of %d split: index %d on worker %d, index %d on worker %d",
							block, first, owner[first], i, owner[i])
					}
				}
			})
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, func(int) { called = true })
	ForEach(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachWorkerIdsInRange(t *testing.T) {
	const n = 1000
	w := Workers(n)
	var bad atomic.Int32
	ForEachWorker(n, func(wk, i int) {
		if wk < 0 || wk >= w {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d calls with out-of-range worker id", bad.Load())
	}
}

func TestMapOrderedResults(t *testing.T) {
	got := Map(1000, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d]=%d want %d", i, v, i*i)
		}
	}
}

func TestMapWorkerScratchReuse(t *testing.T) {
	// Each worker's scratch is a counter; the sum over all scratches must
	// equal n (every index counted exactly once, on its worker's scratch).
	const n = 500
	type counter struct{ n int }
	counters := make([]*counter, Workers(n))
	Map := MapWorker(n, func(w int) *counter {
		c := &counter{}
		counters[w] = c
		return c
	}, func(c *counter, i int) int {
		c.n++
		return i
	})
	total := 0
	for _, c := range counters {
		if c != nil {
			total += c.n
		}
	}
	if total != n {
		t.Fatalf("scratch counters sum %d want %d", total, n)
	}
	for i, v := range Map {
		if v != i {
			t.Fatalf("out[%d]=%d", i, v)
		}
	}
}

// TestDeterministicAcrossWorkerCounts runs the same indexed computation at
// GOMAXPROCS 1 and 8 and requires identical output slices.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func() []int {
		return Map(4096, func(i int) int { return i*2654435761 ^ i>>3 })
	}
	old := runtime.GOMAXPROCS(1)
	a := run()
	runtime.GOMAXPROCS(8)
	b := run()
	runtime.GOMAXPROCS(old)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs across worker counts", i)
		}
	}
}

// BenchmarkForEach times the scheduler itself: each index does one store,
// so ns/op is the cost of handing n indices to the workers.
func BenchmarkForEach(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			out := make([]int, n)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				ForEach(n, func(i int) { out[i] = i })
			}
		})
	}
}
