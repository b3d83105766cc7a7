// Package pool runs index-addressed tasks on a bounded set of goroutines:
// the one worker pool behind the sampler's parallel draws, the robust loop's
// neighborhood evaluation and the designer portfolio's race. Callers write
// each task's result into an index-aligned slot and reduce in index order,
// so their outputs never depend on scheduling.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size resolves a parallelism setting to a pool size for n tasks:
// non-positive means runtime.NumCPU(), and the pool never exceeds n nor
// drops below 1.
func Size(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	return max(1, min(parallelism, n))
}

// Run calls task(w, i) for every i in [0, n) on Size(parallelism, n)
// goroutines, which claim indices in increasing order; w < Size names the
// goroutine, so a task can keep per-worker state. At size 1 it runs inline,
// in index order, with no goroutines. Run returns when every task has.
func Run(parallelism, n int, task func(w, i int)) {
	workers := Size(parallelism, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				task(w, i)
			}
		}()
	}
	wg.Wait()
}
