// Package par provides the shared bounded worker-pool and chunking
// primitives behind the repository's parallel hot paths: the global
// placer's per-net and per-cell passes and its two-axis cold seed, DSP-graph
// construction, the per-cell candidate/cost phase of the assignment loop,
// the sharded sparse kernels of internal/mat and experiment-row execution.
//
// Every helper is deterministic-by-construction: work units are identified
// by index, results are written to caller-owned per-index (or per-worker)
// slots, and any merging the caller performs in index order is independent
// of goroutine scheduling. Callers that need floating-point reductions must
// either reduce per-index results serially or accumulate integers (whose
// addition is exactly associative), so that output is bit-identical across
// worker counts.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of workers to use for n independent work
// units: GOMAXPROCS capped at n, and at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) across Workers(n) goroutines.
// Workers claim contiguous blocks of indices (see blockSize) from a shared
// atomic cursor, so uneven work units still balance across workers while a
// pass over many cheap indices costs one contended atomic add per block, not
// per index. fn must only touch per-index state (e.g. slot i of a
// preallocated result slice); under that contract the result is identical
// for any worker count.
func ForEach(n int, fn func(i int)) {
	ForEachWorker(n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the worker id exposed: fn(w, i) is called
// with w in [0, Workers(n)), and all calls for one w happen sequentially on
// a single goroutine, in ascending i. This lets callers keep per-worker
// scratch buffers (BFS queues, IDDFS visit marks, query buffers) that are
// reused across all items that worker claims.
func ForEachWorker(n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers := Workers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	block := int64(blockSize(n, workers))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				end := cursor.Add(block)
				lo, hi := int(end-block), min(int(end), n)
				if lo >= n {
					return
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// blockSize is the number of consecutive indices one cursor step claims: a
// fixed rule of n and the worker count that leaves about 16 blocks per
// worker, enough for the tail to balance, and one index per step when n is
// small (experiment rows, the 16 shards of ForEachShard).
func blockSize(n, workers int) int {
	return max(1, n/(16*workers))
}

// Map runs fn over [0, n) in parallel and returns the results in index
// order — the deterministic ordered-merge primitive: out[i] depends only on
// i, never on scheduling.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapWorker is Map with per-worker scratch: make(w) is called once per
// worker (lazily, on that worker's goroutine) and the scratch value is
// passed to every fn call that worker executes.
func MapWorker[T, S any](n int, mk func(w int) S, fn func(scratch S, i int) T) []T {
	out := make([]T, n)
	scratch := make([]S, Workers(n))
	made := make([]bool, Workers(n))
	ForEachWorker(n, func(w, i int) {
		if !made[w] {
			scratch[w] = mk(w)
			made[w] = true
		}
		out[i] = fn(scratch[w], i)
	})
	return out
}

// DefaultShards is the fixed shard count for ForEachShard-based floating-
// point reductions. It is a constant — never derived from GOMAXPROCS — so
// the shard boundaries, and therefore the summation order of any per-shard
// partial-sum reduction performed in shard order, are identical at every
// worker count.
const DefaultShards = 16

// ForEachShard splits [0, n) into exactly `shards` contiguous ranges and
// runs fn(s, lo, hi) for each non-empty range across the worker pool. The
// ranges depend only on n and shards, so callers that accumulate into
// per-shard buffers and reduce them serially in shard order get bit-
// identical floating-point results regardless of GOMAXPROCS — the
// deterministic-reduction primitive behind the placer's bin-density
// accumulation.
func ForEachShard(n, shards int, fn func(s, lo, hi int)) {
	if n <= 0 || shards <= 0 {
		return
	}
	if shards > n {
		shards = n
	}
	ForEach(shards, func(s int) {
		lo := n * s / shards
		hi := n * (s + 1) / shards
		if lo < hi {
			fn(s, lo, hi)
		}
	})
}
