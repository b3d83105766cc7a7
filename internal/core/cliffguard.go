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
func (cg *CliffGuard) run(ctx context.Context, w0 *workload.Workload) (_ *designer.Design, _ []Trace, stats RunStats, _ error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w0 == nil || w0.Len() == 0 {
		return nil, nil, stats, errors.New("core: empty target workload")
	}
	opts := cg.Opts.Normalized()
	rng := rand.New(rand.NewSource(opts.Seed))

	tb := &traceBuilder{}
	em := emitter{obs: obs.Multi(tb, opts.Observer), met: opts.Metrics}
	nominal := cg.resolveNominal(opts, em)

	// Line 1: nominal design for W0.
	d, err := cg.invokeNominal(ctx, em, nominal, -1, w0)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("core: initial nominal design: %w", err)
	}
	if opts.Gamma == 0 {
		return d, nil, stats, nil // nominal case: nothing to guard against
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
		return nil, nil, stats, fmt.Errorf("core: sampling Gamma-neighborhood: %w", err)
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

	// The incremental evaluator: the (now fixed) neighborhood's queries are
	// numbered once, and each scored design keeps one unit-cost vector over
	// them. Every already-scored design replays instead of re-invoking the
	// cost model; see incremental.go.
	ev := cg.newRunEval(opts, w0, neighborhood)
	defer func() {
		stats.UniverseQueries, stats.UniverseCells = len(ev.u.queries), ev.cells
	}()

	alpha := opts.InitialAlpha
	worst, err := worstOf(ev.score(ctx, d, em, -1, obs.PhaseInitial))
	if err != nil {
		return nil, nil, stats, err
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
			incWorst, incErr := worstOf(ev.score(ctx, inc, em, -1, obs.PhaseInitial))
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
				return nil, nil, stats, incErr
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
	var accumulated []int

	for iter := 0; iter < opts.Iterations; iter++ {
		iterStart := em.clock()
		em.emit(obs.IterationStart{Iteration: iter, Alpha: alpha, WorstCase: worst})

		// Neighborhood exploration: worst neighbors under the current design.
		// The incumbent was scored by the previous pass (the initial scan or
		// the last candidate scan), so with the fast path on this ranking is
		// a replay of that pass, not a re-evaluation.
		worstNeighbors, err := topNeighbors(ev.score(ctx, d, em, iter, obs.PhaseRank), opts.TopFraction)
		if err != nil {
			return nil, nil, stats, err
		}
		accumulated = append(accumulated, worstNeighbors...)
		moveTargets := accumulated
		if opts.DisableAccumulation {
			moveTargets = worstNeighbors
		}

		// Robust local move: merge and re-design. The move reads the
		// incumbent's unit-cost vector.
		moved := ev.u.moveWorkload(moveTargets, alpha, ev.unit(ctx, d))
		cand, err := cg.invokeNominal(ctx, em, nominal, iter, moved)
		if err != nil {
			return nil, nil, stats, fmt.Errorf("core: nominal design on moved workload: %w", err)
		}
		candWorst, err := worstOf(ev.score(ctx, cand, em, iter, obs.PhaseCandidate))
		if err != nil {
			return nil, nil, stats, err
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
		// Two-generation eviction: vectors survive only for the incumbent
		// (possibly just replaced) and the latest candidate.
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
	stats.FinalWorst = worst
	return d, tb.traces, stats, nil
}

// resolveNominal returns the designer filling the loop's nominal slot: the
// plain black-box nominal, or — when Options.Portfolio names extra members —
// a portfolio racing [Nominal, Portfolio...] concurrently, scored on each
// input workload with deterministic winner selection. The portfolio shares
// the run's observer and metrics so per-member DesignerInvoked events and
// win counters land in the same streams as the rest of the loop.
//
// A nominal that implements designer.SessionDesigner fills the slot with a
// session opened for this run: it keeps the candidate derivations and pair
// cells that the run's designer calls repeat. Only the run holds it, so it
// dies with the run. Portfolio members keep the plain path.
func (cg *CliffGuard) resolveNominal(opts Options, em emitter) designer.Designer {
	if len(opts.Portfolio) == 0 {
		if sd, ok := cg.Nominal.(designer.SessionDesigner); ok {
			return sd.Session()
		}
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

// topNeighbors reduces one evaluation pass to the neighborhood indices of
// the top fraction by cost, most expensive first. The stable sort runs over
// the index-ordered result slice, so ties between equal-cost neighbors break
// by neighborhood index regardless of worker count.
func topNeighbors(results []evalResult, frac float64) ([]int, error) {
	var idx []int
	for i, r := range results {
		if r.err != nil {
			if errors.Is(r.err, errWorkloadUncostable) {
				continue
			}
			return nil, r.err
		}
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		return nil, ErrUncostableNeighborhood
	}
	sort.SliceStable(idx, func(a, b int) bool { return results[idx[a]].cost > results[idx[b]].cost })
	k := min(max(int(math.Ceil(frac*float64(len(idx)))), 1), len(idx))
	return idx[:k], nil
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
	if ctx == nil {
		ctx = context.Background()
	}
	u := newUniverse(w0, worstNeighbors)
	targets := make([]int, len(worstNeighbors))
	for i := range targets {
		targets[i] = i
	}
	return u.moveWorkload(targets, alpha, cg.unitCall(ctx, u, d))
}

// moveWorkload is MoveWorkload over the universe's neighbors targets (by
// index, repeats allowed). unit returns the current design's unit cost of a
// universe entry; ok is false for an unsupported query or a hard error, which
// the move skips. Inside the robust loop unit reads the incumbent's vector,
// which the ranking pass already filled.
func (u *universe) moveWorkload(targets []int, alpha float64, unit func(int32) (float64, bool)) *workload.Workload {
	// weight(q, W0) is u.w0Weight; order lists W0's distinct queries, then
	// every other query of the worst neighbors in first-appearance order.
	// weight[x] accumulates q's weight across the worst neighbors, then holds
	// its raw movement pressure.
	const seen, moving = 1, 2
	weight, state := u.moveWeight, u.moveState
	clear(weight)
	clear(state)
	order := u.moveOrder[:0]
	for x := 0; x < u.nW0; x++ {
		state[x] = seen
		order = append(order, int32(x))
	}
	visit := func(x int32, w float64) {
		if u.w0Weight[x] > 0 {
			// W0's own queries re-appear inside every sampled neighbor;
			// their movement pressure is already represented by the
			// weight(q, W0) term.
			return
		}
		weight[x] += w
		if state[x]&seen == 0 {
			order = append(order, x)
		}
		state[x] |= seen | moving
	}
	for _, i := range targets {
		n := &u.nbrs[i]
		if n.prefix {
			for k, x := range u.w0Idx {
				visit(x, u.w0[k].Weight)
			}
		}
		for k, x := range n.idx {
			visit(x, n.tail[k].Weight)
		}
	}
	u.moveOrder = order

	// Raw movement pressure: latency x frequency per neighbor query, summed
	// in the deterministic order, so rawTotal's rounding never varies.
	var rawTotal float64
	for _, x := range order {
		if state[x]&moving == 0 {
			continue
		}
		fq, ok := unit(x)
		if !ok || fq <= 0 {
			weight[x] = 0
			continue
		}
		r := fq * weight[x]
		weight[x] = r
		rawTotal += r
	}

	scale := 0.0
	if rawTotal > 0 {
		scale = alpha * u.w0Total / rawTotal
	}

	moved := &workload.Workload{Items: make([]workload.Item, 0, len(order))}
	for _, x := range order {
		omega := u.w0Weight[x] + weight[x]*scale
		if omega > 0 && !math.IsInf(omega, 0) && !math.IsNaN(omega) {
			moved.Add(u.queries[x], omega)
		}
	}
	return moved
}
