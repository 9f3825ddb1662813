package ml

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxParallelism caps the worker count of GridSearch and ParallelFor
// fan-outs. Zero (the default) means runtime.GOMAXPROCS(0); 1 forces the
// historical sequential execution. Results are reduced in deterministic
// order regardless of the setting, so it only affects wall-clock.
var MaxParallelism int

// parallelism resolves the effective worker count for n independent tasks.
func parallelism(n int) int {
	p := MaxParallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Parallelism reports the worker count parallel fan-outs (GridSearch,
// ParallelFor) will use for n independent tasks under the current
// MaxParallelism setting. Batch-path learners size their per-worker scratch
// (morsel tally arrays) with it.
func Parallelism(n int) int { return parallelism(n) }

// ParallelFor runs fn(i) for i in [0, n) on a worker pool capped by
// MaxParallelism — the exported form of the fan-out GridSearch uses,
// shared with the learners' morsel-parallel training loops. Indices are
// claimed atomically, so scheduling is nondeterministic, but each index
// runs exactly once; callers write results into per-index slots (or
// commutative integer accumulators) and reduce in index order to stay
// deterministic.
func ParallelFor(n int, fn func(i int)) { parallelFor(n, fn) }

// activeFanouts counts parallelFor fan-outs currently in flight. A fan-out
// that starts while another is active (a batch-path learner Fit inside a
// GridSearch worker) runs sequentially instead of stacking a second worker
// pool on top of the first — the outer level already owns the cores, and
// nesting would oversubscribe them up to P×P goroutines. Results
// are identical either way (per-index slots / commutative reductions); only
// scheduling changes.
var activeFanouts atomic.Int32

// parallelFor runs fn(i) for i in [0, n) on a worker pool. Iterations are
// claimed atomically, so scheduling is nondeterministic, but each index runs
// exactly once; callers write results into per-index slots and reduce them
// in index order afterwards to stay deterministic.
func parallelFor(n int, fn func(i int)) {
	workers := parallelism(n)
	if workers > 1 && activeFanouts.Load() > 0 {
		workers = 1
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	activeFanouts.Add(1)
	defer activeFanouts.Add(-1)
	var next atomic.Int64
	var wg sync.WaitGroup
	// A panic inside a worker goroutine would crash the process before the
	// caller's recover could see it (storage corruption surfaces as a typed
	// panic from segment faults). Capture the first one — value untouched, so
	// errors.As still matches — and re-throw it on the calling goroutine once
	// every worker has drained.
	var panicOnce sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					next.Store(int64(n)) // stop other workers claiming new work
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
