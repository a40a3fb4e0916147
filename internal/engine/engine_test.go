package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// The TestMap* tests exercise StreamRecover's mapping of a task channel over
// the pool. Submission order is not part of its contract: the planner's
// RunParallel places results by name, and internal/planner checks that.

// feed returns a closed channel holding 0..n-1.
func feed(n int) <-chan int {
	in := make(chan int, n)
	for i := 0; i < n; i++ {
		in <- i
	}
	close(in)
	return in
}

// never is an onPanic for tasks that must not panic.
func never(t *testing.T) func(int, any, []byte) int {
	return func(i int, v any, _ []byte) int {
		t.Errorf("task %d panicked: %v", i, v)
		return -1
	}
}

func TestMapRunsEveryTaskExactlyOnce(t *testing.T) {
	var calls, delivered [64]atomic.Int32
	n := StreamRecover(context.Background(), 8, feed(len(calls)),
		func(_ context.Context, _, i int) int {
			calls[i].Add(1)
			return i
		},
		func(i int) { delivered[i].Add(1) },
		never(t))
	if n != len(calls) {
		t.Errorf("consumed %d values, want %d", n, len(calls))
	}
	for i := range calls {
		if c, d := calls[i].Load(), delivered[i].Load(); c != 1 || d != 1 {
			t.Errorf("task %d ran %d times, delivered %d times", i, c, d)
		}
	}
}

// workerIDs runs n tasks on the pool and returns how many ran on each
// worker id.
func workerIDs(t *testing.T, workers, n int) map[int]int {
	seen := map[int]int{}
	StreamRecover(context.Background(), workers, feed(n),
		func(_ context.Context, w, _ int) int { return w },
		func(w int) { seen[w]++ }, // out is serialized
		never(t))
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != n {
		t.Errorf("workers=%d: worker attribution covers %d tasks, want %d", workers, total, n)
	}
	return seen
}

// TestStreamReportsWorkerIDs: every task sees a worker id in [0, workers).
func TestStreamReportsWorkerIDs(t *testing.T) {
	const workers = 5
	for w, c := range workerIDs(t, workers, 200) {
		if w < 0 || w >= workers {
			t.Errorf("%d tasks ran on worker %d, want [0,%d)", c, w, workers)
		}
	}
}

// TestStreamSingleWorkerIsZero: a single-worker pool reports worker 0
// throughout.
func TestStreamSingleWorkerIsZero(t *testing.T) {
	for w, c := range workerIDs(t, 1, 10) {
		if w != 0 {
			t.Errorf("%d tasks saw worker %d on a single-worker pool", c, w)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	StreamRecover(context.Background(), workers, feed(24),
		func(_ context.Context, _, i int) int {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			// Let other workers catch up so a violation would be observed.
			runtime.Gosched()
			inFlight.Add(-1)
			return i
		},
		func(int) {},
		never(t))
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if n := StreamRecover(context.Background(), 4, feed(0),
		func(_ context.Context, _, i int) int { return i },
		func(int) { t.Error("out called on empty input") },
		never(t)); n != 0 {
		t.Errorf("empty input consumed %d values", n)
	}
	var got []int
	n := StreamRecover(context.Background(), 16, feed(1),
		func(_ context.Context, _, _ int) int { return 7 },
		func(r int) { got = append(got, r) },
		never(t))
	if n != 1 || len(got) != 1 || got[0] != 7 {
		t.Errorf("single input: consumed %d, delivered %v", n, got)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(0, 100); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(8, 3); w != 3 {
		t.Errorf("Workers(8, 3) = %d, want clamp to 3", w)
	}
	if w := Workers(-2, 0); w != 1 {
		t.Errorf("Workers(-2, 0) = %d, want 1", w)
	}
}

// TestStreamRecoverContainsPanics: panicking tasks are replaced by
// onPanic's value (with the panicking stack captured) while surviving
// tasks run untouched, on every worker count.
func TestStreamRecoverContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var stacks atomic.Int64
		got := map[int]int{}
		n := StreamRecover(context.Background(), workers, feed(20),
			func(_ context.Context, _, i int) [2]int {
				if i%5 == 3 {
					panic(i)
				}
				return [2]int{i, i * 10}
			},
			func(r [2]int) { got[r[0]] = r[1] },
			func(i int, v any, stack []byte) [2]int {
				if v.(int) != i {
					t.Errorf("onPanic got value %v for task %d", v, i)
				}
				if len(stack) > 0 {
					stacks.Add(1)
				}
				return [2]int{i, -1}
			})
		if n != 20 || len(got) != 20 {
			t.Fatalf("workers=%d: consumed %d, delivered %d results, want 20", workers, n, len(got))
		}
		for i, v := range got {
			want := i * 10
			if i%5 == 3 {
				want = -1
			}
			if v != want {
				t.Errorf("workers=%d: task %d = %d, want %d", workers, i, v, want)
			}
		}
		if stacks.Load() != 4 {
			t.Errorf("workers=%d: %d stacks captured, want 4", workers, stacks.Load())
		}
	}
}
