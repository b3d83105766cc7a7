package core

import (
	"context"
	"errors"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// The incremental-evaluation layer. One DesignWithTrace run holds a runEval:
// a unit-cost memo keyed (query, design fingerprint) plus a per-design score
// cache over the run's fixed neighborhood. Together they collapse the loop's
// repeated evaluation passes:
//
//   - Every iteration's PhaseRank pass re-scores the neighborhood under a
//     design the previous pass (PhaseInitial or PhaseCandidate) just scored.
//     The score cache recognizes the fingerprint and replays the memoized
//     index-aligned results — worstCase and worstNeighbors thereby share one
//     evaluation pass per (neighborhood, design) pair.
//   - Within a live pass under a new fingerprint, the unit-cost memo
//     deduplicates the queries the neighbors share (every sampled neighbor
//     reuses most of W0's query pointers), so an N-workload pass costs
//     |distinct queries| model calls instead of N x |W|.
//   - MoveWorkload reads the same memo: the incumbent's unit costs were
//     already computed by the pass that scored it.
//
// Determinism: memoized unit costs are the exact float64s the pure cost
// model returns (see workloadCost), cached score slices are the exact
// evalResult values of the live pass, and replay emits NeighborEvaluated
// events with identical payloads in index order — the canonical order every
// within-pass comparison normalizes to (and the literal emission order at
// Parallelism 1). Designs, traces, and JSONL payloads are therefore
// bit-identical with the fast path on or off, at any parallelism.
//
// Memory: retain() applies the two-generation policy after every iteration —
// only the incumbent's and the latest candidate's fingerprints survive, in
// both the unit memo and the score cache, so cache growth is bounded by
// 2 x |distinct queries| regardless of iteration count.
type runEval struct {
	cg     *CliffGuard
	units  *evalcache.Cache        // nil when the fast path is disabled
	scores map[uint64][]evalResult // design fingerprint -> index-aligned pass results
}

// newRunEval builds the run's evaluator. Under FullPassEval both caches
// stay nil and score degenerates to the reference full pass.
func (cg *CliffGuard) newRunEval(opts Options) *runEval {
	re := &runEval{cg: cg}
	if !opts.fullPassEval {
		re.scores = make(map[uint64][]evalResult)
		re.units = evalcache.New()
		if opts.Metrics != nil {
			opts.Metrics.RegisterCache("evalcache", re.units.Stats)
		}
	}
	return re
}

// score evaluates the neighborhood under d, replaying the memoized pass when
// d's fingerprint has been scored before in this run. score runs on the loop
// goroutine only (the internal maps are not locked); the parallel fan-out
// happens inside evalNeighborhood.
func (re *runEval) score(ctx context.Context, neighborhood []*workload.Workload, d *designer.Design, em emitter, iter int, phase string) []evalResult {
	if re.scores != nil {
		if cached, ok := re.scores[d.Fingerprint()]; ok {
			re.replay(cached, em, iter, phase)
			return cached
		}
	}
	res := re.cg.evalNeighborhood(ctx, neighborhood, d, em, iter, phase, re.units)
	if re.scores != nil && cacheableResults(res) {
		re.scores[d.Fingerprint()] = res
	}
	return res
}

// replay re-emits a memoized pass: the same NeighborEvaluated payloads the
// live pass produced, in index order, with the same per-workload metric
// updates (each replayed workload counts as a fast-path evaluation).
func (re *runEval) replay(results []evalResult, em emitter, iter int, phase string) {
	for i, r := range results {
		start := em.clock()
		if em.met != nil {
			em.met.NeighborsEvaluated.Inc()
			em.met.EvalFastPath.Inc()
			em.met.EvalLatency.Observe(time.Since(start))
		}
		if em.obs != nil {
			if r.err == nil {
				em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: i, Cost: r.cost})
			} else {
				// cacheableResults admits only errWorkloadUncostable.
				em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: i, Uncostable: true})
			}
		}
	}
}

// retain applies the two-generation eviction: only the incumbent's and the
// latest candidate's fingerprints survive the iteration boundary.
func (re *runEval) retain(incumbent, candidate *designer.Design) {
	if re.scores == nil {
		return
	}
	fpI, fpC := incumbent.Fingerprint(), candidate.Fingerprint()
	for fp := range re.scores {
		if fp != fpI && fp != fpC {
			delete(re.scores, fp)
		}
	}
	re.units.Retain(fpI, fpC)
}

// cacheableResults reports whether a pass may be memoized: per-workload
// uncostability is a deterministic outcome and caches fine, but hard errors
// (cancellation, cost-model failure) abort the run and must never be
// replayed as results.
func cacheableResults(results []evalResult) bool {
	for _, r := range results {
		if r.err != nil && !errors.Is(r.err, errWorkloadUncostable) {
			return false
		}
	}
	return true
}
