package designer

import "cliffguard/internal/workload"

// VectorCoster is implemented by cost models that cost one design over a
// fixed set of queries faster than a Cost call per query: the robust loop
// prepares its query universe once per run and fills each scored design's
// unit-cost vector through the kernel when its cost model implements
// VectorCoster. A wrapper that counts or times Cost calls must not
// implement it (nor embed a type that does), or the vector entries would
// bypass the wrapper.
type VectorCoster interface {
	// PrepareVector returns a kernel over queries, or nil when the cost
	// model has none (a wrapper whose inner model has none); the caller then
	// costs each query with Cost.
	PrepareVector(queries []*workload.Query) VectorKernel
}

// VectorKernel costs whole designs over the queries it was prepared for.
type VectorKernel interface {
	// Bind makes d the design Fill costs until the next Bind. It must not
	// run concurrently with Fill.
	Bind(d *Design)
	// Fill sets cost[k] and errs[k] to the cost model's Cost(queries[xs[k]],
	// d) under the bound design, bit for bit: errs[k] is nil on success and
	// Cost's error otherwise (ErrUnsupported for a query outside the
	// engine's costable subset). Several goroutines may Fill at once. Each
	// entry counts as one cost-model call in the engine's metrics.
	Fill(xs []int32, cost []float64, errs []error)
}
