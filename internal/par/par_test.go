package par

import (
	"sync/atomic"
	"testing"
)

// TestParallelForCoversAllIndices checks the pool executes every index
// exactly once at various widths.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 64} {
		const n = 37
		var counts [n]atomic.Int32
		For(p, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("p=%d: index %d ran %d times", p, i, got)
			}
		}
	}
}

// TestParallelForPropagatesPanic checks a worker panic resurfaces in the
// caller instead of crashing the process from a goroutine.
func TestParallelForPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	For(4, 16, func(i int) {
		if i == 11 {
			panic("boom")
		}
	})
}

// TestForWorkerIndexInRange pins the invariant callers size per-worker
// state by: every worker index ForWorker hands out lies in
// [0, Workers(p, n)), and no worker runs two tasks at once.
func TestForWorkerIndexInRange(t *testing.T) {
	for _, tc := range []struct{ p, n int }{{0, 5}, {1, 5}, {2, 1}, {3, 40}, {64, 7}, {4, 0}} {
		workers := Workers(tc.p, tc.n)
		busy := make([]atomic.Int32, workers)
		var ran atomic.Int32
		ForWorker(tc.p, tc.n, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("p=%d n=%d: task %d on worker %d, want [0, %d)", tc.p, tc.n, i, w, workers)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("p=%d n=%d: worker %d ran two tasks concurrently", tc.p, tc.n, w)
			}
			ran.Add(1)
			busy[w].Add(-1)
		})
		if int(ran.Load()) != tc.n {
			t.Fatalf("p=%d n=%d: ran %d tasks", tc.p, tc.n, ran.Load())
		}
	}
}
