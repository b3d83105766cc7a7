// Package core implements the CliffGuard algorithm (Algorithm 2 of the
// paper) and its MoveWorkload subroutine (Algorithm 3): a robust-optimization
// outer loop, derived from the Bertsimas-Nohadani-Teo (BNT) gradient-descent
// framework, wrapped around an existing nominal designer that is treated as
// a black box.
//
// Each iteration (i) explores the Gamma-neighborhood of the target workload
// for worst-performing sampled neighbors, and (ii) performs a "robust local
// move": it merges those worst neighbors into the target workload with a
// cost- and frequency-derived weight scaled by alpha, re-invokes the nominal
// designer on the merged workload, and keeps the new design only if it
// improves the worst-case cost over the sampled neighborhood. Alpha is
// adapted by backtracking line search (lambda_success > 1 on improvement,
// 0 < lambda_failure < 1 on failure), mirroring BNT's step-size control.
//
// The loop is instrumented through internal/obs: every phase emits typed
// events to Options.Observer and updates Options.Metrics. The per-iteration
// []Trace returned by DesignWithTrace is itself derived from that event
// stream (a trace-building observer collecting obs.IterationEnd), so the
// JSONL event log and the trace slice can never disagree — one source of
// truth. With a nil observer and nil metrics every emission point reduces to
// a nil check.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/obs"
	"cliffguard/internal/portfolio"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// CliffGuard wraps a nominal designer in the robust-optimization loop.
type CliffGuard struct {
	Nominal designer.Designer
	Cost    designer.CostModel
	Sampler *sample.Sampler
	Opts    Options
}

// New returns a CliffGuard instance.
func New(nominal designer.Designer, cost designer.CostModel, sampler *sample.Sampler, opts Options) *CliffGuard {
	return &CliffGuard{Nominal: nominal, Cost: cost, Sampler: sampler, Opts: opts}
}

// Name implements designer.Designer.
func (cg *CliffGuard) Name() string { return "CliffGuard" }

// Trace records one iteration of the loop, for diagnostics and the
// convergence experiments (Figures 12-13). Its fields mirror
// obs.IterationEnd exactly: traces are built from the emitted event stream.
type Trace struct {
	Iteration     int
	Alpha         float64
	WorstCase     float64 // worst-case cost of the incumbent design
	CandidateCost float64 // worst-case cost of the candidate design
	Improved      bool
}

// traceBuilder derives the []Trace from the event stream: it is always
// attached as the first observer, so DesignWithTrace's return value and any
// user-visible event sink are views of the same emissions. Only the loop
// goroutine emits IterationEnd; concurrent NeighborEvaluated events fall
// through the type switch without touching the slice.
type traceBuilder struct {
	traces []Trace
}

func (tb *traceBuilder) OnEvent(ev obs.Event) {
	if e, ok := ev.(obs.IterationEnd); ok {
		tb.traces = append(tb.traces, Trace{
			Iteration:     e.Iteration,
			Alpha:         e.Alpha,
			WorstCase:     e.WorstCase,
			CandidateCost: e.CandidateCost,
			Improved:      e.Improved,
		})
	}
}

// Design implements designer.Designer (Algorithm 2).
func (cg *CliffGuard) Design(ctx context.Context, w0 *workload.Workload) (*designer.Design, error) {
	d, _, err := cg.DesignWithTrace(ctx, w0)
	return d, err
}

// DesignWithTrace runs Algorithm 2 and returns the per-iteration trace. A
// cancelled ctx aborts the loop promptly (between and inside neighborhood
// evaluations) with ctx.Err().
//
// It is implemented on top of the job-oriented API: Start launches the same
// loop asynchronously and DesignWithTrace awaits it, so the synchronous and
// handle-based paths share one implementation and stay bit-identical.
func (cg *CliffGuard) DesignWithTrace(ctx context.Context, w0 *workload.Workload) (*designer.Design, []Trace, error) {
	return cg.Start(ctx, w0).Await(context.Background())
}

// run is the robust loop itself (Algorithm 2); Start executes it on the run
// goroutine.
func (cg *CliffGuard) run(ctx context.Context, w0 *workload.Workload) (*designer.Design, []Trace, RunStats, *evalcache.Generation, error) {
	var stats RunStats
	if ctx == nil {
		ctx = context.Background()
	}
	if w0 == nil || w0.Len() == 0 {
		return nil, nil, stats, nil, errors.New("core: empty target workload")
	}
	opts := cg.Opts.Normalized()
	rng := rand.New(rand.NewSource(opts.Seed))

	tb := &traceBuilder{}
	em := emitter{obs: obs.Multi(tb, opts.Observer), met: opts.Metrics}
	nominal := cg.resolveNominal(opts, em)

	// Line 1: nominal design for W0.
	d, err := cg.invokeNominal(ctx, em, nominal, -1, w0)
	if err != nil {
		return nil, nil, stats, nil, fmt.Errorf("core: initial nominal design: %w", err)
	}
	if opts.Gamma == 0 {
		return d, nil, stats, nil, nil // nominal case: nothing to guard against
	}

	// Line 2: sample the Gamma-neighborhood. The sampler fans its draws
	// across the same worker budget as neighborhood evaluation; results are
	// bit-identical at any parallelism (per-draw RNG substreams). The run
	// works on its own copy, so concurrent runs never write cg.Sampler.
	sampler := *cg.Sampler
	sampler.Parallelism = opts.Parallelism
	sampleStart := em.clock()
	neighborhood, err := sampler.Neighborhood(rng, w0, opts.Gamma, opts.Samples)
	if err != nil {
		return nil, nil, stats, nil, fmt.Errorf("core: sampling Gamma-neighborhood: %w", err)
	}
	// The target workload itself is part of the uncertainty set (distance 0).
	neighborhood = append(neighborhood, w0)
	if em.met != nil {
		em.met.SampleLatency.Observe(time.Since(sampleStart))
	}
	em.emit(obs.NeighborhoodSampled{
		Gamma:     opts.Gamma,
		Requested: opts.Samples,
		Produced:  len(neighborhood),
	})

	// The incremental evaluator: a unit-cost memo plus a per-design score
	// cache over the (now fixed) neighborhood. Every already-scored design
	// replays instead of re-invoking the cost model; see incremental.go.
	ev := cg.newRunEval(opts)

	alpha := opts.InitialAlpha
	worst, err := worstOf(ev.score(ctx, neighborhood, d, em, -1, obs.PhaseInitial))
	if err != nil {
		return nil, nil, stats, nil, err
	}
	stats.NominalWorst = worst

	// Warm start: when an incumbent design from a previous run is supplied,
	// it competes with the fresh nominal design on the same PhaseInitial
	// pass, and the loop starts from whichever is strictly better (a tie
	// keeps the nominal design — the historical start). An incumbent that
	// cannot cost any workload of this neighborhood is skipped, not fatal:
	// the run degrades to a cold start.
	if inc := opts.InitialDesign; inc != nil {
		if inc.Fingerprint() == d.Fingerprint() {
			stats.IncumbentScored = true
			stats.IncumbentWorst = worst
		} else {
			incWorst, incErr := worstOf(ev.score(ctx, neighborhood, inc, em, -1, obs.PhaseInitial))
			switch {
			case incErr == nil:
				stats.IncumbentScored = true
				stats.IncumbentWorst = incWorst
				if incWorst < worst {
					d, worst = inc, incWorst
					stats.SeededFromIncumbent = true
				}
			case errors.Is(incErr, ErrUncostableNeighborhood):
				// keep the nominal start
			default:
				return nil, nil, stats, nil, incErr
			}
		}
	}
	sinceImprove := 0

	// Worst neighbors accumulate across iterations: each robust move must
	// keep guarding the directions discovered earlier while adding the newly
	// worst ones. (BNT's moves are incremental by construction — x_{k+1} =
	// x_k + t_k*d — whereas each nominal re-design starts from scratch, so
	// without accumulation a move can trade previously-hedged directions for
	// new ones and never converge.)
	var accumulated []*workload.Workload

	for iter := 0; iter < opts.Iterations; iter++ {
		iterStart := em.clock()
		em.emit(obs.IterationStart{Iteration: iter, Alpha: alpha, WorstCase: worst})

		// Neighborhood exploration: worst neighbors under the current design.
		// The incumbent was scored by the previous pass (the initial scan or
		// the last candidate scan), so with the fast path on this ranking is
		// a replay of that pass, not a re-evaluation.
		worstNeighbors, err := topNeighbors(neighborhood,
			ev.score(ctx, neighborhood, d, em, iter, obs.PhaseRank), opts.TopFraction)
		if err != nil {
			return nil, nil, stats, nil, err
		}
		accumulated = append(accumulated, worstNeighbors...)
		moveTargets := accumulated
		if opts.DisableAccumulation {
			moveTargets = worstNeighbors
		}

		// Robust local move: merge and re-design. The move reads the same
		// unit-cost memo the ranking pass just filled.
		moved := cg.moveWorkload(ctx, w0, moveTargets, d, alpha, ev.units)
		cand, err := cg.invokeNominal(ctx, em, nominal, iter, moved)
		if err != nil {
			return nil, nil, stats, nil, fmt.Errorf("core: nominal design on moved workload: %w", err)
		}
		candWorst, err := worstOf(ev.score(ctx, neighborhood, cand, em, iter, obs.PhaseCandidate))
		if err != nil {
			return nil, nil, stats, nil, err
		}

		end := obs.IterationEnd{Iteration: iter, Alpha: alpha, WorstCase: worst, CandidateCost: candWorst}
		if candWorst < worst {
			em.emit(obs.MoveAccepted{Iteration: iter, Alpha: alpha, WorstCase: candWorst, Previous: worst})
			if em.met != nil {
				em.met.MovesAccepted.Inc()
			}
			d, worst = cand, candWorst
			alpha = math.Min(alpha*opts.LambdaSuccess, AlphaMax)
			end.Improved = true
			sinceImprove = 0
		} else {
			em.emit(obs.MoveRejected{Iteration: iter, Alpha: alpha, CandidateCost: candWorst, WorstCase: worst})
			if em.met != nil {
				em.met.MovesRejected.Inc()
			}
			alpha = math.Max(alpha*opts.LambdaFailure, AlphaMin)
			sinceImprove++
		}
		// Two-generation eviction: unit costs and scores survive only for
		// the incumbent (possibly just replaced) and the latest candidate.
		ev.retain(d, cand)
		em.emit(end)
		if em.met != nil {
			em.met.IterationsCompleted.Inc()
			em.met.IterationLatency.Observe(time.Since(iterStart))
		}
		if sinceImprove >= opts.Patience {
			break
		}
	}
	// Run-end harvest: the final cache state (post-eviction it still holds
	// the returned design's and last candidate's unit costs) joins whatever
	// the per-iteration harvests already exported.
	ev.harvest()
	stats.FinalWorst = worst
	stats.WarmHits = ev.warmHits()
	if em.met != nil && stats.WarmHits > 0 {
		em.met.EvalWarmHits.Add(stats.WarmHits)
	}
	return d, tb.traces, stats, ev.gen, nil
}

// resolveNominal returns the designer filling the loop's nominal slot: the
// plain black-box nominal, or — when Options.Portfolio names extra members —
// a portfolio racing [Nominal, Portfolio...] concurrently, scored on each
// input workload with deterministic winner selection. The portfolio shares
// the run's observer and metrics so per-member DesignerInvoked events and
// win counters land in the same streams as the rest of the loop.
func (cg *CliffGuard) resolveNominal(opts Options, em emitter) designer.Designer {
	if len(opts.Portfolio) == 0 {
		return cg.Nominal
	}
	members := make([]designer.Designer, 0, 1+len(opts.Portfolio))
	members = append(members, cg.Nominal)
	members = append(members, opts.Portfolio...)
	return &portfolio.Portfolio{
		Members:       members,
		Cost:          cg.Cost,
		Parallelism:   opts.Parallelism,
		MemberTimeout: opts.MemberTimeout,
		Observer:      em.obs,
		Metrics:       em.met,
	}
}

// invokeNominal calls the (resolved) black-box designer with
// instrumentation: a DesignerInvoked event on success plus invocation count
// and latency in the metrics registry. iter is -1 for the initial design;
// it also rides the context so composite designers (the portfolio) can tag
// their own per-member events.
func (cg *CliffGuard) invokeNominal(ctx context.Context, em emitter, nominal designer.Designer, iter int, w *workload.Workload) (*designer.Design, error) {
	ctx = obs.ContextWithIteration(ctx, iter)
	start := em.clock()
	d, err := nominal.Design(ctx, w)
	if em.met != nil {
		em.met.DesignerInvocations.Inc()
		em.met.DesignLatency.Observe(time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	if em.obs != nil {
		em.obs.OnEvent(obs.DesignerInvoked{
			Iteration:  iter,
			Designer:   nominal.Name(),
			Queries:    w.Len(),
			Structures: d.Len(),
			SizeBytes:  d.SizeBytes(),
		})
	}
	return d, nil
}

// worstOf is the max reduction over one evaluation pass: the worst-case cost
// across the sampled neighborhood. Workloads the cost model cannot handle at
// all are skipped (the sampler's mutator only produces in-schema queries, so
// this is defensive); if every workload is uncostable the result is
// ErrUncostableNeighborhood rather than a degenerate -Inf worst case. The
// reduction walks results in neighborhood-index order, and a hard error from
// the lowest index wins, so the outcome is independent of worker scheduling.
// Both reductions (worstOf and topNeighbors) consume the same score pass —
// the single-pass-per-(neighborhood, design) contract of incremental.go.
func worstOf(results []evalResult) (float64, error) {
	worst := math.Inf(-1)
	costable := false
	for _, r := range results {
		if r.err != nil {
			if errors.Is(r.err, errWorkloadUncostable) {
				continue
			}
			return 0, r.err
		}
		costable = true
		if r.cost > worst {
			worst = r.cost
		}
	}
	if !costable {
		return 0, ErrUncostableNeighborhood
	}
	return worst, nil
}

// topNeighbors reduces one evaluation pass to the top fraction of the
// neighborhood by cost, most expensive first. The stable sort runs over the
// index-ordered result slice, so ties between equal-cost neighbors break by
// neighborhood index regardless of worker count.
func topNeighbors(neighborhood []*workload.Workload, results []evalResult, frac float64) ([]*workload.Workload, error) {
	type scored struct {
		w *workload.Workload
		c float64
	}
	var all []scored
	for i, r := range results {
		if r.err != nil {
			if errors.Is(r.err, errWorkloadUncostable) {
				continue
			}
			return nil, r.err
		}
		all = append(all, scored{neighborhood[i], r.cost})
	}
	if len(all) == 0 {
		return nil, ErrUncostableNeighborhood
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].c > all[j].c })
	k := int(math.Ceil(frac * float64(len(all))))
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]*workload.Workload, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].w
	}
	return out, nil
}

// MoveWorkload implements Algorithm 3: build a merged workload closer to the
// worst neighbors. Following the paper, every query q of a worst neighbor
// contributes weight proportional to its latency under the current design
// times its frequency across the worst neighbors — the nominal designer is
// thereby steered toward the expensive, popular directions — and the merged
// workload always contains W0, which is why CliffGuard never degrades below
// the nominal designer even at extreme Gamma (Section 6.5).
//
// The scaling factor alpha plays the role of BNT's step size: the
// neighbor-derived mass is normalized so its total equals alpha times W0's
// total mass. (The paper applies alpha as an exponent on unnormalized
// cost-times-frequency products; with latencies in milliseconds and sampled
// frequencies in the hundreds, that exponent form is numerically explosive —
// mass-ratio normalization preserves its role in the backtracking line
// search while keeping the designer's objective balanced between W0 and the
// perturbation directions.)
func (cg *CliffGuard) MoveWorkload(ctx context.Context, w0 *workload.Workload, worstNeighbors []*workload.Workload, d *designer.Design, alpha float64) *workload.Workload {
	return cg.moveWorkload(ctx, w0, worstNeighbors, d, alpha, nil)
}

// moveWorkload is MoveWorkload with an optional unit-cost memo: inside the
// robust loop the per-query latencies under the incumbent design were just
// computed by the ranking pass, so units (keyed by d's fingerprint) turns
// the latency-times-frequency loop into pure lookups.
func (cg *CliffGuard) moveWorkload(ctx context.Context, w0 *workload.Workload, worstNeighbors []*workload.Workload, d *designer.Design, alpha float64, units *evalcache.Cache) *workload.Workload {
	if ctx == nil {
		ctx = context.Background()
	}
	// weight(q, W) aggregated by query identity.
	w0Weight := make(map[*workload.Query]float64)
	for _, it := range w0.Items {
		w0Weight[it.Q] += it.Weight
	}
	neighborWeight := make(map[*workload.Query]float64)
	var order []*workload.Query
	seen := make(map[*workload.Query]bool)
	for _, q := range w0.Queries() {
		if !seen[q] {
			seen[q] = true
			order = append(order, q)
		}
	}
	for _, wn := range worstNeighbors {
		for _, it := range wn.Items {
			if w0Weight[it.Q] > 0 {
				// W0's own queries re-appear inside every sampled neighbor;
				// their movement pressure is already represented by the
				// weight(q, W0) term.
				continue
			}
			neighborWeight[it.Q] += it.Weight
			if !seen[it.Q] {
				seen[it.Q] = true
				order = append(order, it.Q)
			}
		}
	}

	// Raw movement pressure: latency x frequency per neighbor query. Iterate
	// the deterministic order slice, not the neighborWeight map: rawTotal is a
	// float sum, and map iteration order would make its rounding — and hence
	// the moved workload's weights — vary from run to run.
	raw := make(map[*workload.Query]float64, len(neighborWeight))
	var rawTotal float64
	fp := d.Fingerprint()
	for _, q := range order {
		nw, ok := neighborWeight[q]
		if !ok {
			continue
		}
		// Unsupported queries and hard errors are skipped either way, so the
		// memoized and legacy paths build identical moved workloads.
		fq, unsupported, _, err := cg.unitCost(ctx, q, d, units, fp)
		if err != nil || unsupported || fq <= 0 {
			continue
		}
		r := fq * nw
		raw[q] = r
		rawTotal += r
	}

	scale := 0.0
	if rawTotal > 0 {
		scale = alpha * w0.TotalWeight() / rawTotal
	}

	moved := &workload.Workload{}
	for _, q := range order {
		omega := w0Weight[q] + raw[q]*scale
		if omega > 0 && !math.IsInf(omega, 0) && !math.IsNaN(omega) {
			moved.Add(q, omega)
		}
	}
	return moved
}
