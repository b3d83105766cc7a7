package core

import (
	"fmt"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
)

// Alpha clamps of the backtracking line search (BNT's step-size control):
// after an improving move alpha is multiplied by LambdaSuccess, after a
// failed one by LambdaFailure, and in both cases clamped into
// [AlphaMin, AlphaMax]. The bounds keep the robust move meaningful: above
// AlphaMax the merged workload is dominated by the perturbation directions
// (the nominal designer would effectively stop seeing W0), below AlphaMin
// the neighbor-derived mass is rounding noise next to W0 and the line search
// could never recover in the few iterations the loop runs.
const (
	// AlphaMin is the smallest step size the line search may shrink to
	// (1/32 of W0's mass).
	AlphaMin = 1.0 / 32
	// AlphaMax is the largest step size the line search may grow to
	// (8x W0's mass).
	AlphaMax = 8.0
)

// Options configure the CliffGuard loop. The defaults follow Section 6.1 of
// the paper: n=20 samples, 5 iterations, lambda_success=5, lambda_failure=0.5.
//
// Zero values always mean "use the default". Set values are either sensible
// or not: Validate reports nonsensical settings as errors, Normalized clamps
// them to the defaults. The loop itself runs on Normalized options, so a
// CliffGuard built directly from core.New tolerates garbage; the public
// facade's constructors call Validate and refuse it.
type Options struct {
	// Gamma is the robustness knob: the radius of the workload-distance
	// neighborhood the design must be robust within. Gamma = 0 degenerates
	// to the nominal designer.
	Gamma float64
	// Samples is the neighborhood sample count n (default 20).
	Samples int
	// Iterations bounds the robust-move loop (default 5).
	Iterations int
	// Patience stops the loop after this many consecutive non-improving
	// iterations (default: Iterations, i.e. disabled).
	Patience int
	// TopFraction selects the worst-neighbor set: the top fraction of
	// sampled neighbors by cost (default 0.2, per Section 4.3's "top-K or
	// top 20%" bias mitigation). At least one neighbor is always selected.
	TopFraction float64
	// InitialAlpha is the starting step-size exponent (default 1). A set
	// value must lie in (AlphaMin, AlphaMax], the working range of the
	// backtracking line search.
	InitialAlpha float64
	// LambdaSuccess multiplies alpha after an improving move (default 5).
	LambdaSuccess float64
	// LambdaFailure multiplies alpha after a failed move (default 0.5).
	LambdaFailure float64
	// Seed makes sampling deterministic.
	Seed int64
	// Parallelism bounds the worker pool used to evaluate the sampled
	// neighborhood (worst-case scans and worst-neighbor ranking). Zero or
	// negative means runtime.NumCPU(). Any value yields bit-identical designs
	// and traces for a fixed Seed: evaluation results are merged by
	// neighborhood index, never by completion order.
	Parallelism int
	// DisableAccumulation reverts to the paper's literal formulation where
	// each robust move sees only the current iteration's worst neighbors
	// (ablation knob; see the package comment for why accumulation is the
	// default).
	DisableAccumulation bool
	// Portfolio lists additional member designers raced against the nominal
	// designer on every workload the robust loop designs (the initial target
	// and each iteration's moved workload). The loop's designer slot becomes
	// a portfolio.Portfolio over [Nominal, Portfolio...]: members run
	// concurrently under the Parallelism bound, each returned design is
	// scored once per distinct design on the input workload, and the best
	// design wins with a deterministic tie-break — so the loop's
	// outputs stay bit-identical at any parallelism. Empty means the nominal
	// designer runs alone (the historical behavior).
	Portfolio []designer.Designer
	// MemberTimeout bounds each portfolio member's Design call (0 = no
	// bound). A member exceeding it is skipped for that invocation — counted
	// in Metrics, never fatal — as long as at least one member returns.
	MemberTimeout time.Duration
	// InitialDesign seeds the loop with an incumbent design from a previous
	// run. The nominal designer is still consulted for W0 (line 1 of
	// Algorithm 2 is unchanged), but the incumbent is scored on the same
	// initial neighborhood pass and whichever design has the strictly lower
	// worst-case cost starts the robust-move loop — a tie keeps the nominal
	// design. Both scores are recorded in RunStats, which is what lets the
	// online controller's safety rule prove that a published design never
	// regresses vs the incumbent on the current window. nil (the default)
	// preserves the historical nominal-only start; with Gamma = 0 the
	// option is ignored (the run returns the nominal design untouched).
	InitialDesign *designer.Design
	// fullPassEval selects the reference full pass (see FullPassEval).
	fullPassEval bool

	// Observer receives the loop's typed instrumentation events
	// (obs.IterationStart/End, obs.NeighborEvaluated, ...). nil disables
	// event emission at ~zero cost. The observer MUST be safe for
	// concurrent OnEvent calls when Parallelism != 1: the reference full
	// pass emits NeighborEvaluated from its worker goroutines. Events
	// never carry wall-clock time, so attaching an observer cannot perturb
	// the determinism of designs or traces.
	Observer obs.Observer
	// Metrics, when non-nil, aggregates atomic counters and latency
	// histograms across the run (sampler draws, cost-model calls, pool
	// occupancy, per-phase latency). Share one registry across runs to
	// accumulate; nil disables metric updates at ~zero cost.
	Metrics *obs.Metrics
}

// WithObserver returns a copy of the options with ob attached. If an
// observer is already set, both receive every event (fan-out in attachment
// order). Attaching nil is a no-op, so call sites can thread an optional
// observer without branching.
func (o Options) WithObserver(ob obs.Observer) Options {
	o.Observer = obs.Multi(o.Observer, ob)
	return o
}

// WithMetrics returns a copy of the options with the metrics registry set.
func (o Options) WithMetrics(m *obs.Metrics) Options {
	o.Metrics = m
	return o
}

// FullPassEval returns a copy of o whose runs evaluate every neighborhood
// pass in full, calling the cost model once per (query, workload) with no
// memo or pass replay. Designs, traces and events are bit-identical to the
// default memoized path; the full pass is the oracle its tests and the EVAL
// experiment compare against. It is a function, not an Options method, so
// that the public Options alias cannot reach it.
func FullPassEval(o Options) Options {
	o.fullPassEval = true
	return o
}

// Validate reports nonsensical option values. Zero values are valid (they
// mean "default"); non-zero values must make sense:
//
//   - Gamma must be >= 0
//   - Samples, Iterations, Patience, Parallelism may not be negative
//     (Parallelism <= 0 means NumCPU and stays valid)
//   - TopFraction must lie in [0, 1]
//   - InitialAlpha, if set, must lie in (AlphaMin, AlphaMax] — the working
//     range of the backtracking line search (its clamps)
//   - LambdaSuccess, if set, must be > 1 (it grows alpha on success)
//   - LambdaFailure, if set, must lie in (0, 1) (it shrinks alpha on failure)
//
// Callers that prefer the historical silent-clamping behavior can use
// Normalized instead.
func (o Options) Validate() error {
	if o.Gamma < 0 {
		return fmt.Errorf("core: Gamma = %g, must be >= 0", o.Gamma)
	}
	if o.Samples < 0 {
		return fmt.Errorf("core: Samples = %d, must be >= 0 (0 = default)", o.Samples)
	}
	if o.Iterations < 0 {
		return fmt.Errorf("core: Iterations = %d, must be >= 0 (0 = default)", o.Iterations)
	}
	if o.Patience < 0 {
		return fmt.Errorf("core: Patience = %d, must be >= 0 (0 = default)", o.Patience)
	}
	if o.TopFraction < 0 || o.TopFraction > 1 {
		return fmt.Errorf("core: TopFraction = %g, must lie in [0, 1] (0 = default)", o.TopFraction)
	}
	if o.InitialAlpha != 0 && !(o.InitialAlpha > AlphaMin && o.InitialAlpha <= AlphaMax) {
		return fmt.Errorf("core: InitialAlpha = %g, must lie in (%g, %g] — the line search clamps alpha to [AlphaMin, AlphaMax] (0 = default)",
			o.InitialAlpha, AlphaMin, AlphaMax)
	}
	if o.LambdaSuccess != 0 && o.LambdaSuccess <= 1 {
		return fmt.Errorf("core: LambdaSuccess = %g, must be > 1 (it grows alpha on an improving move; 0 = default)", o.LambdaSuccess)
	}
	if o.LambdaFailure != 0 && (o.LambdaFailure < 0 || o.LambdaFailure >= 1) {
		return fmt.Errorf("core: LambdaFailure = %g, must lie in (0, 1) (it shrinks alpha on a failed move; 0 = default)", o.LambdaFailure)
	}
	for i, m := range o.Portfolio {
		if m == nil {
			return fmt.Errorf("core: Portfolio[%d] is nil", i)
		}
	}
	if o.MemberTimeout < 0 {
		return fmt.Errorf("core: MemberTimeout = %v, must be >= 0 (0 = no bound)", o.MemberTimeout)
	}
	return nil
}

// Normalized returns the options with every zero or nonsensical value
// replaced by its default. This is the historical withDefaults behavior,
// kept public for callers that want clamping rather than Validate errors;
// the loop always runs on Normalized options.
func (o Options) Normalized() Options {
	if o.Samples <= 0 {
		o.Samples = 20
	}
	if o.Iterations <= 0 {
		o.Iterations = 5
	}
	if o.Patience <= 0 {
		o.Patience = o.Iterations
	}
	if o.TopFraction <= 0 || o.TopFraction > 1 {
		o.TopFraction = 0.2
	}
	if !(o.InitialAlpha > AlphaMin && o.InitialAlpha <= AlphaMax) {
		o.InitialAlpha = 1
	}
	if o.LambdaSuccess <= 1 {
		o.LambdaSuccess = 5
	}
	if o.LambdaFailure <= 0 || o.LambdaFailure >= 1 {
		o.LambdaFailure = 0.5
	}
	if o.MemberTimeout < 0 {
		o.MemberTimeout = 0
	}
	for _, m := range o.Portfolio {
		if m == nil {
			clean := make([]designer.Designer, 0, len(o.Portfolio))
			for _, m := range o.Portfolio {
				if m != nil {
					clean = append(clean, m)
				}
			}
			o.Portfolio = clean
			break
		}
	}
	return o
}
