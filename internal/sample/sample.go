// Package sample implements Algorithm 4 of the CliffGuard paper: sampling
// the workload space so that a sampled workload W1 lies at a requested
// distance alpha from a given workload W0. CliffGuard uses this to populate
// the Gamma-neighborhood it explores for worst-case neighbors.
//
// The construction follows the paper: find a query set Q disjoint from W0
// with beta = delta(W0, Q) > alpha, then blend Q into W0 with mixing weight
// c = n*lambda / (k*(1-lambda)) where lambda = sqrt(alpha/beta). Because
// delta_euclidean is quadratic in the frequency-difference vector, the blend
// lands at exactly alpha. This implementation uses fractional item weights
// instead of floor(c) integral copies, so the landing is exact rather than
// quantized.
//
// For quadratic metrics (distance.Quadratic: Euclidean, Separate) the
// landing is taken on faith — delta(W0, blend(c)) == lambda²·beta == alpha
// holds in exact arithmetic whenever Q is template-disjoint from W0 (see
// DESIGN.md "Closed-form blend landing") — so the verify/grow/bisect phase
// and its up-to-80 Distance evaluations are skipped entirely. Non-quadratic
// metrics (delta_latency) and non-disjoint perturbation sets (possible under
// restricted clause masks) keep the verification-and-bisection fallback. The
// landing is chosen by the metric's type alone: wrapping a quadratic metric
// as struct{ distance.Metric } hides DistanceDisjoint and selects the
// fallback, which is how tests and the SAMPLER benchmark reach the legacy
// landing for comparison.
//
// Neighborhood fans its draws across a bounded worker pool, one derived RNG
// substream per draw index, so the result is bit-identical at any
// parallelism setting.
package sample

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/pool"
	"cliffguard/internal/workload"
)

// QuerySource produces candidate perturbation queries "near" a workload.
// Candidates should be plausible future queries: same tables and similar
// column sets as W0's queries, but with templates not present in W0.
//
// Implementations must be safe for concurrent Candidates calls with distinct
// rng instances: the parallel Neighborhood invokes one call per in-flight
// draw. They must not retain rng past the call, because Neighborhood
// re-seeds it for the worker's next draw. The built-in Mutator is stateless
// and satisfies both.
type QuerySource interface {
	// Candidates returns up to k candidate queries. Implementations may
	// return fewer if they cannot generate enough distinct templates.
	Candidates(rng *rand.Rand, w0 *workload.Workload, k int) []*workload.Query
}

// Sampler samples workloads in the Gamma-neighborhood of a target workload.
type Sampler struct {
	Metric distance.Metric
	Source QuerySource
	// MaxTries bounds the search for a perturbation set with beta > alpha
	// (the paper reports success within a few tries for k <= 5).
	MaxTries int
	// Tolerance is the acceptable relative error |delta-alpha|/alpha after
	// construction; beyond it the sampler bisects the blend weight.
	Tolerance float64
	// PerturbationSize is the initial number of perturbation queries per
	// sample (the paper's k). 0 means adaptive: a third of W0's distinct
	// templates, so the perturbed mass models broad template churn rather
	// than a few runaway queries.
	PerturbationSize int
	// Parallelism bounds the workers Neighborhood fans its draws across,
	// resolved by pool.Size like every other pool: <= 0 means NumCPU; 1 runs
	// on the caller's goroutine. Results are bit-identical at every setting
	// (per-draw RNG substreams).
	Parallelism int
	// Metrics, when non-nil, counts draws, perturbation-set retries, failed
	// draws, fast/slow-path landings, and sampler Distance evaluations.
	Metrics *obs.Metrics
}

// New returns a sampler with the paper-informed defaults.
func New(m distance.Metric, src QuerySource) *Sampler {
	return &Sampler{Metric: m, Source: src, MaxTries: 24, Tolerance: 0.05}
}

// ErrNoPerturbation is returned when the source cannot produce a query set
// far enough from W0 to reach the requested distance.
var ErrNoPerturbation = errors.New("sample: could not find a perturbation set with delta(W0,Q) > alpha")

// SampleAt returns a workload at distance ~alpha from w0 (Algorithm 4).
// alpha == 0 returns a clone of w0.
func (s *Sampler) SampleAt(rng *rand.Rand, w0 *workload.Workload, alpha float64) (*workload.Workload, error) {
	if alpha < 0 {
		return nil, fmt.Errorf("sample: negative distance %g", alpha)
	}
	if w0.Len() == 0 {
		return nil, errors.New("sample: empty target workload")
	}
	if s.Metrics != nil {
		s.Metrics.SamplerDraws.Inc()
	}
	if alpha == 0 {
		return w0.Clone(), nil
	}

	quad, isQuad := s.Metric.(distance.Quadratic)

	// Find Q = {q1..qk}, Q disjoint from W0's templates, with
	// delta(W0, Q) > alpha; grow k when unsuccessful. The frozen vector's
	// sorted keys double as the fresh-template filter (binary search instead
	// of building a template-set map per draw).
	frozen := w0.Frozen(workload.MaskSWGO)
	var qset *workload.Workload
	var beta float64
	var disjoint bool
	// Spread the perturbed mass across multiple plausible drift directions:
	// one heavy mutant is not a representative neighborhood sample when the
	// same distance can also be reached by broad template churn.
	k := s.PerturbationSize
	if k <= 0 {
		k = frozen.Len() / 3
		if k < 6 {
			k = 6
		}
		if k > 40 {
			k = 40
		}
	}
	for try := 0; try < s.maxTries(); try++ {
		if try > 0 && s.Metrics != nil {
			s.Metrics.SamplerRetries.Inc()
		}
		cands := s.Source.Candidates(rng, w0, k)
		var fresh []*workload.Query
		for _, q := range cands {
			if !frozen.HasKey(q.TemplateKey(workload.MaskSWGO)) {
				fresh = append(fresh, q)
			}
		}
		if len(fresh) > 0 {
			cand := workload.New(fresh...)
			var b float64
			var dj bool
			if isQuad {
				b, dj = quad.DistanceDisjoint(w0, cand)
			} else {
				b = s.Metric.Distance(w0, cand)
			}
			s.countEvals(1)
			if b > alpha {
				qset, beta, disjoint = cand, b, dj
				break
			}
		}
		if try%3 == 2 && k < 48 {
			k += 4
		}
	}
	if qset == nil {
		if s.Metrics != nil {
			s.Metrics.SamplerFailures.Inc()
		}
		return nil, fmt.Errorf("%w (alpha=%g)", ErrNoPerturbation, alpha)
	}

	// Blend: lambda = sqrt(alpha/beta); c = n*lambda / (k*(1-lambda)).
	lambda := math.Sqrt(alpha / beta)
	n := w0.TotalWeight()
	kf := float64(qset.Len())
	c := n * lambda / (kf * (1 - lambda))

	build := func(c float64) *workload.Workload {
		out := w0.Clone()
		for _, it := range qset.Items {
			out.Add(it.Q, c*it.Weight)
		}
		return out
	}
	w1 := build(c)

	// Closed-form landing: for a quadratic metric and template-disjoint Q,
	// the blended weight fraction is u = cS/(N+cS) = lambda exactly (S = k,
	// the total weight of Q's unit items), so delta(W0, w1) = lambda²·beta =
	// alpha in exact arithmetic — verification cannot improve on it.
	if isQuad && disjoint {
		if s.Metrics != nil {
			s.Metrics.SamplerFastPath.Inc()
		}
		return w1, nil
	}
	if s.Metrics != nil {
		s.Metrics.SamplerSlowPath.Inc()
	}

	// Verify; for non-quadratic metrics bisect c until within tolerance.
	got := s.Metric.Distance(w0, w1)
	s.countEvals(1)
	if relErr(got, alpha) > s.tolerance() {
		lo, hi := 0.0, c
		// Grow hi until it overshoots, then bisect.
		for i := 0; i < 32; i++ {
			d := s.Metric.Distance(w0, build(hi))
			s.countEvals(1)
			if d >= alpha {
				break
			}
			hi *= 2
		}
		for i := 0; i < 48; i++ {
			mid := (lo + hi) / 2
			d := s.Metric.Distance(w0, build(mid))
			s.countEvals(1)
			if d < alpha {
				lo = mid
			} else {
				hi = mid
			}
		}
		w1 = build((lo + hi) / 2)
	}
	return w1, nil
}

// Neighborhood returns n sampled workloads with distances drawn uniformly
// from (0, gamma] (Algorithm 2, line 2). Failed draws are skipped, so the
// result may be shorter than n; it errors only if no draw succeeds.
//
// Draws are fanned across min(Parallelism, n) workers. Each draw i consumes
// only its own RNG substream, seeded with splitmix64(root, i) from a single
// root value read off the caller's rng, so the returned workloads — and the
// counters fed to Metrics — are bit-identical whether Parallelism is 1 or
// NumCPU. The caller's rng advances by exactly one Uint64 regardless of n.
// Each worker owns one generator and re-seeds it per draw: Seed resets the
// whole generator state, so the substream equals a freshly built one's.
func (s *Sampler) Neighborhood(rng *rand.Rand, w0 *workload.Workload, gamma float64, n int) ([]*workload.Workload, error) {
	if gamma < 0 {
		return nil, fmt.Errorf("sample: negative gamma %g", gamma)
	}
	if n <= 0 {
		return nil, fmt.Errorf("sample: non-positive sample count %d", n)
	}
	if gamma == 0 {
		// Degenerate neighborhood: n clones are still n draws — report
		// summaries divide retries by draws, so these must be counted.
		if s.Metrics != nil {
			s.Metrics.SamplerDraws.Add(uint64(n))
		}
		out := make([]*workload.Workload, n)
		for i := range out {
			out[i] = w0.Clone()
		}
		return out, nil
	}

	root := rng.Uint64()
	results := make([]*workload.Workload, n)
	errs := make([]error, n)
	draw := func(sub *rand.Rand, i int) {
		sub.Seed(int64(splitmix64(root, uint64(i))))
		alpha := gamma * (0.05 + 0.95*sub.Float64()) // avoid degenerate near-zero draws
		results[i], errs[i] = s.SampleAt(sub, w0, alpha)
	}

	subs := make([]*rand.Rand, s.workers(n))
	pool.Run(s.Parallelism, n, func(w, i int) {
		if subs[w] == nil {
			subs[w] = rand.New(rand.NewSource(0))
		}
		draw(subs[w], i)
	})

	// Merge in draw-index order so the output is independent of completion
	// order; failed draws are dropped here.
	out := make([]*workload.Workload, 0, n)
	var lastErr error
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		out = append(out, results[i])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sample: no neighborhood samples succeeded: %w", lastErr)
	}
	return out, nil
}

// workers is the size of the pool Neighborhood runs n draws on.
func (s *Sampler) workers(n int) int { return pool.Size(s.Parallelism, n) }

// splitmix64 derives the seed of draw substream i from the root value: one
// round of the SplitMix64 output function over root + (i+1)·golden-gamma.
// Distinct indexes land in well-separated states, and the derivation depends
// only on (root, i) — never on scheduling — which is what makes the parallel
// Neighborhood reproducible.
func splitmix64(root, i uint64) uint64 {
	x := root + (i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// countEvals adds Distance evaluations to the sampler's eval counter.
func (s *Sampler) countEvals(n uint64) {
	if s.Metrics != nil {
		s.Metrics.SamplerDistanceEvals.Add(n)
	}
}

func (s *Sampler) maxTries() int {
	if s.MaxTries > 0 {
		return s.MaxTries
	}
	return 24
}

func (s *Sampler) tolerance() float64 {
	if s.Tolerance > 0 {
		return s.Tolerance
	}
	return 0.05
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}
