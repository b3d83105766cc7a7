package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// SamplerResult is the SAMPLER experiment's output: the same fixed-seed
// neighborhood drawn once with the closed-form fast path and once with the
// legacy build-and-verify landing. The counter columns are deterministic for
// a fixed seed (they gate the BENCH_SAMPLER.json baseline); the wall-clock
// columns are informational.
type SamplerResult struct {
	Workload string
	Draws    int

	// Deterministic counters (gated).
	FastPath      uint64
	SlowPath      uint64
	FastEvals     uint64 // Distance evaluations with the fast path on
	LegacyEvals   uint64 // Distance evaluations with the fast path off
	EvalReduction float64
	MaxLandingErr float64 // worst relative |delta - alpha| between the two paths

	// Wall-clock (informational, never gated).
	FastMs   float64
	LegacyMs float64
	Speedup  float64
}

// SamplerBench runs the sampler micro-experiment behind the PR 4 fast path:
// draws one n-sample Gamma-neighborhood of the set's first month twice —
// closed-form landing on, then off (the metric's distance.Quadratic methods
// hidden, which selects the legacy landing) — at parallelism 1 with
// identical seeds, and reports the Distance-evaluation counters plus the
// wall-clock ratio. Both runs must agree on every sampled workload within
// 1e-12, so the landing-error column doubles as an end-to-end equivalence
// check on real (generated, non-synthetic) workloads.
func SamplerBench(set *wlgen.Set, gamma float64, draws int, seed int64) (*SamplerResult, error) {
	s := set.Config.Schema
	if len(set.Months) == 0 || set.Months[0].Len() == 0 {
		return nil, fmt.Errorf("bench: sampler experiment needs a non-empty first month")
	}
	w0 := set.Months[0]
	metric := distance.NewEuclidean(s.NumColumns())

	run := func(legacy bool) ([]*workload.Workload, *obs.Metrics, float64, error) {
		var m distance.Metric = metric
		if legacy {
			m = struct{ distance.Metric }{metric}
		}
		sampler := sample.New(m, sample.NewMutator(s))
		sampler.Parallelism = 1
		sampler.Metrics = obs.NewMetrics()
		// Fresh clone per run: neither run may inherit the other's frozen
		// vectors, so cold-cache work is measured symmetrically.
		target := w0.Clone()
		start := time.Now()
		out, err := sampler.Neighborhood(rand.New(rand.NewSource(seed)), target, gamma, draws)
		return out, sampler.Metrics, float64(time.Since(start).Microseconds()) / 1000, err
	}

	fastW, fastM, fastMs, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("bench: sampler fast run: %w", err)
	}
	legacyW, legacyM, legacyMs, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("bench: sampler legacy run: %w", err)
	}
	if len(fastW) != len(legacyW) {
		return nil, fmt.Errorf("bench: paths drew %d vs %d samples", len(fastW), len(legacyW))
	}

	res := &SamplerResult{
		Workload:    set.Config.Name,
		Draws:       draws,
		FastPath:    fastM.SamplerFastPath.Load(),
		SlowPath:    fastM.SamplerSlowPath.Load(),
		FastEvals:   fastM.SamplerDistanceEvals.Load(),
		LegacyEvals: legacyM.SamplerDistanceEvals.Load(),
		FastMs:      fastMs,
		LegacyMs:    legacyMs,
	}
	if res.FastEvals > 0 {
		res.EvalReduction = float64(res.LegacyEvals) / float64(res.FastEvals)
	}
	if fastMs > 0 {
		res.Speedup = legacyMs / fastMs
	}
	// Worst relative disagreement between the two landings, measured from
	// W0 (the clone used by the fast run — identical template content).
	ref := w0.Clone()
	for i := range fastW {
		dF := metric.Distance(ref, fastW[i])
		dL := metric.Distance(ref, legacyW[i])
		if dL == 0 {
			continue
		}
		if rel := math.Abs(dF-dL) / dL; rel > res.MaxLandingErr {
			res.MaxLandingErr = rel
		}
	}
	return res, nil
}
