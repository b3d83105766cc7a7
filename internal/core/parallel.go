package core

import (
	"context"
	"errors"
	"math"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/pool"
	"cliffguard/internal/workload"
)

// The parallel neighborhood evaluation engine: pool sizing, the reductions'
// error contract, and the memo-free reference pass (evalNeighborhood) that
// FullPassEval and NeighborhoodCosts run. The robust loop itself evaluates
// through the indexed evaluator (incremental.go) on the same pool.
// Determinism holds by construction: each workload's cost is summed inside
// one goroutine in item order, results land in an index-aligned slice, and
// every reduction — max, stable sort, error selection — walks that slice in
// index order, so a fixed seed yields bit-identical designs and traces for
// any worker count. The reference pass fires NeighborEvaluated events from
// worker goroutines (the multiset per pass is deterministic, the arrival
// order is not). With a nil observer and nil metrics every instrumentation
// site is a single pointer check.

// errWorkloadUncostable marks a single workload in which every query is
// outside the cost model's supported subset. Per-workload uncostability is
// tolerated (the workload is skipped); only when the whole neighborhood is
// uncostable does it surface as ErrUncostableNeighborhood.
var errWorkloadUncostable = designer.ErrNoCostableQuery

// ErrUncostableNeighborhood is returned by Design/DesignWithTrace when no
// workload in the sampled Gamma-neighborhood has a single costable query.
// Earlier versions silently returned the initial design in this situation
// (the worst-case cost degenerated to -Inf and every candidate was rejected);
// an explicit error lets the caller distinguish "robustly designed" from
// "could not evaluate robustness at all".
var ErrUncostableNeighborhood = errors.New("core: no workload in the sampled neighborhood is costable under the cost model")

// emitter bundles the run's observer and metrics registry. Either or both
// may be nil; every method is nil-tolerant so call sites never branch. The
// zero emitter disables all instrumentation (this is what NeighborhoodCosts
// and the benchmarks use).
type emitter struct {
	obs obs.Observer
	met *obs.Metrics
}

func (em emitter) emit(ev obs.Event) {
	if em.obs != nil {
		em.obs.OnEvent(ev)
	}
}

// clock returns the current time iff a metrics registry will consume it;
// otherwise the zero time. Keeps clock reads off the uninstrumented hot path.
func (em emitter) clock() time.Time {
	if em.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// evalResult is one workload's evaluation outcome: a cost, or an error
// (errWorkloadUncostable, ctx.Err(), or a hard cost-model failure).
type evalResult struct {
	cost float64
	err  error
}

// fanOut runs task(w, i) for every i in [0, n) on a worker pool sized by
// parallelism (pool.Size: non-positive means runtime.NumCPU()), keeping the
// pool occupancy gauges; w names the worker, as in pool.Run.
func fanOut(parallelism, n int, em emitter, task func(w, i int)) {
	if em.met == nil {
		pool.Run(parallelism, n, task)
		return
	}
	em.met.PoolQueueDepth.Add(int64(n))
	pool.Run(parallelism, n, func(w, i int) {
		em.met.PoolQueueDepth.Add(-1)
		em.met.PoolWorkersBusy.Add(1)
		task(w, i)
		em.met.PoolWorkersBusy.Add(-1)
	})
}

// evalNeighborhood evaluates f(W, D) for every workload under design d,
// fanning out to the worker pool, with one cost-model call per (query,
// workload): the memo-free reference pass behind NeighborhoodCosts and
// FullPassEval. The returned slice is index-aligned with the input regardless
// of completion order. iter and phase tag the emitted NeighborEvaluated
// events (iter is -1 for the pre-loop initial scan).
func (cg *CliffGuard) evalNeighborhood(ctx context.Context, neighborhood []*workload.Workload, d *designer.Design, em emitter, iter int, phase string) []evalResult {
	res := make([]evalResult, len(neighborhood))
	fanOut(cg.Opts.Parallelism, len(neighborhood), em, func(_, i int) {
		res[i] = cg.evalOne(ctx, neighborhood[i], d, em, iter, phase, i)
	})
	return res
}

func (cg *CliffGuard) evalOne(ctx context.Context, w *workload.Workload, d *designer.Design, em emitter, iter int, phase string, index int) evalResult {
	if err := ctx.Err(); err != nil {
		return evalResult{err: err}
	}
	start := em.clock()
	c, err := designer.MeanCost(ctx, cg.Cost, w, d)
	if em.met != nil {
		em.met.NeighborsEvaluated.Inc()
		em.met.EvalSlowPath.Inc()
		em.met.EvalLatency.Observe(time.Since(start))
	}
	if em.obs != nil {
		// Uncostable workloads are an observable outcome; hard errors
		// (cancellation, cost-model failure) abort the run and are reported
		// through the error path, not the event stream.
		if err == nil {
			em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: index, Cost: c})
		} else if errors.Is(err, errWorkloadUncostable) {
			em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: index, Uncostable: true})
		}
	}
	return evalResult{cost: c, err: err}
}

// NeighborhoodCosts evaluates f(W, D) for every workload in parallel and
// returns the index-aligned costs; workloads with no costable queries yield
// NaN. It runs the memo-free reference pass, whose scores the robust loop's
// indexed evaluator reproduces bit for bit (BenchmarkNeighborhoodEval
// measures it). It runs with instrumentation disabled: the zero emitter
// keeps this path at its pre-instrumentation cost.
func (cg *CliffGuard) NeighborhoodCosts(ctx context.Context, neighborhood []*workload.Workload, d *designer.Design) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := cg.evalNeighborhood(ctx, neighborhood, d, emitter{}, -1, obs.PhaseInitial)
	out := make([]float64, len(results))
	for i, r := range results {
		if r.err != nil {
			if errors.Is(r.err, errWorkloadUncostable) {
				out[i] = math.NaN()
				continue
			}
			return nil, r.err
		}
		out[i] = r.cost
	}
	return out, nil
}
