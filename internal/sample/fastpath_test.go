package sample

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// legacyMetric hides a metric's distance.Quadratic methods, so a sampler
// over it takes the build-and-verify landing: the reference the closed form
// is checked against.
type legacyMetric struct{ distance.Metric }

// TestClosedFormMatchesLegacy is the fast-path property test: across seeds
// and alphas, the closed-form landing and the legacy build-and-verify path
// must produce samples at the same distance within 1e-12 (relative), and both
// must land on the requested alpha almost exactly for quadratic metrics.
func TestClosedFormMatchesLegacy(t *testing.T) {
	s := testSchema()
	metrics := []func() distance.Metric{
		func() distance.Metric { return distance.NewEuclidean(s.NumColumns()) },
		func() distance.Metric { return distance.NewSeparate(s.NumColumns()) },
	}
	for seed := int64(100); seed < 112; seed++ {
		wrng := rand.New(rand.NewSource(seed))
		w0 := baseWorkload(s, wrng, 5+wrng.Intn(12))
		for _, mk := range metrics {
			for _, alpha := range []float64{0.0008, 0.003, 0.01, 0.03} {
				m := mk()
				fast := New(m, NewMutator(s))
				fast.Metrics = obs.NewMetrics()
				slow := New(legacyMetric{m}, NewMutator(s))
				slow.Metrics = obs.NewMetrics()

				drawSeed := seed*1009 + int64(alpha*1e6)
				wF, errF := fast.SampleAt(rand.New(rand.NewSource(drawSeed)), w0, alpha)
				wS, errS := slow.SampleAt(rand.New(rand.NewSource(drawSeed)), w0, alpha)
				if (errF == nil) != (errS == nil) {
					t.Fatalf("seed %d alpha %g %s: fast err %v, slow err %v",
						seed, alpha, m.Name(), errF, errS)
				}
				if errF != nil {
					continue // both unreachable: nothing to compare
				}
				dF := m.Distance(w0, wF)
				dS := m.Distance(w0, wS)
				if math.Abs(dF-dS) > 1e-12*alpha {
					t.Errorf("seed %d alpha %g %s: fast landed %v, slow landed %v",
						seed, alpha, m.Name(), dF, dS)
				}
				if rel := math.Abs(dF-alpha) / alpha; rel > 1e-9 {
					t.Errorf("seed %d alpha %g %s: closed form landed %v (rel err %g)",
						seed, alpha, m.Name(), dF, rel)
				}
				// The fast path must actually have been taken — and have spent
				// strictly fewer Distance evaluations than the legacy path.
				if fast.Metrics.SamplerFastPath.Load() != 1 || fast.Metrics.SamplerSlowPath.Load() != 0 {
					t.Fatalf("seed %d alpha %g %s: fast path not taken (fast=%d slow=%d)",
						seed, alpha, m.Name(),
						fast.Metrics.SamplerFastPath.Load(), fast.Metrics.SamplerSlowPath.Load())
				}
				if slow.Metrics.SamplerSlowPath.Load() != 1 {
					t.Fatalf("seed %d alpha %g %s: legacy path not taken", seed, alpha, m.Name())
				}
				if f, l := fast.Metrics.SamplerDistanceEvals.Load(), slow.Metrics.SamplerDistanceEvals.Load(); f >= l {
					t.Errorf("seed %d alpha %g %s: fast path used %d evals, legacy %d",
						seed, alpha, m.Name(), f, l)
				}
			}
		}
	}
}

// TestNonQuadraticFallsBack: delta_latency is not a Quadratic metric, so the
// sampler must take the verify/bisect path (and still land within tolerance).
func TestNonQuadraticFallsBack(t *testing.T) {
	s := testSchema()
	baseline := func(w *workload.Workload) float64 {
		var total float64
		for _, it := range w.Items {
			total += it.Weight * float64(it.Q.Columns().Len())
		}
		return total
	}
	m := distance.NewLatency(s.NumColumns(), 0.2, baseline)
	sampler := New(m, NewMutator(s))
	sampler.Metrics = obs.NewMetrics()
	rng := rand.New(rand.NewSource(9))
	w0 := baseWorkload(s, rng, 10)

	alpha := 0.01
	w1, err := sampler.SampleAt(rng, w0, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Distance(w0, w1); math.Abs(got-alpha)/alpha > sampler.tolerance()+1e-9 {
		t.Errorf("latency-metric sample landed at %g, want ~%g", got, alpha)
	}
	if sampler.Metrics.SamplerFastPath.Load() != 0 {
		t.Error("non-quadratic metric must not take the fast path")
	}
	if sampler.Metrics.SamplerSlowPath.Load() != 1 {
		t.Error("non-quadratic metric must take the slow path")
	}
}

// neighborhoodFingerprint canonicalizes a neighborhood for bit-exact
// comparison: per workload, per item, the query ID, its SWGO template key,
// and the exact weight bits.
type sampleFingerprint struct {
	id     int64
	key    string
	weight uint64
}

func neighborhoodFingerprint(ws []*workload.Workload) [][]sampleFingerprint {
	out := make([][]sampleFingerprint, len(ws))
	for i, w := range ws {
		fps := make([]sampleFingerprint, len(w.Items))
		for j, it := range w.Items {
			fps[j] = sampleFingerprint{
				id:     it.Q.ID,
				key:    it.Q.TemplateKey(workload.MaskSWGO),
				weight: math.Float64bits(it.Weight),
			}
		}
		out[i] = fps
	}
	return out
}

// TestNeighborhoodParallelDeterminism: the same seed must yield bit-identical
// neighborhoods (query identities, template keys, exact weights) at any
// parallelism, and the sampler counters must agree too.
func TestNeighborhoodParallelDeterminism(t *testing.T) {
	s := testSchema()
	w0 := baseWorkload(s, rand.New(rand.NewSource(10)), 12)

	run := func(p int) ([][]sampleFingerprint, obs.MetricsSnapshot) {
		sampler, _ := newTestSampler(s)
		sampler.Parallelism = p
		sampler.Metrics = obs.NewMetrics()
		got, err := sampler.Neighborhood(rand.New(rand.NewSource(11)), w0, 0.02, 24)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		return neighborhoodFingerprint(got), sampler.Metrics.Snapshot()
	}

	ref, refMetrics := run(1)
	for _, p := range []int{2, 4, runtime.NumCPU()} {
		got, gotMetrics := run(p)
		if len(got) != len(ref) {
			t.Fatalf("p=%d: %d samples, want %d", p, len(got), len(ref))
		}
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("p=%d sample %d: %d items, want %d", p, i, len(got[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("p=%d sample %d item %d: %+v != %+v", p, i, j, got[i][j], ref[i][j])
				}
			}
		}
		if gotMetrics.SamplerDraws != refMetrics.SamplerDraws ||
			gotMetrics.SamplerRetries != refMetrics.SamplerRetries ||
			gotMetrics.SamplerFastPath != refMetrics.SamplerFastPath ||
			gotMetrics.SamplerSlowPath != refMetrics.SamplerSlowPath ||
			gotMetrics.SamplerDistanceEvals != refMetrics.SamplerDistanceEvals {
			t.Fatalf("p=%d: counters diverge: %+v vs %+v", p, gotMetrics, refMetrics)
		}
	}
}

// TestNeighborhoodGammaZeroCountsDraws: the degenerate clone branch must
// still count its draws (draw/retry ratios in cliffreport depend on it).
func TestNeighborhoodGammaZeroCountsDraws(t *testing.T) {
	s := testSchema()
	sampler, _ := newTestSampler(s)
	sampler.Metrics = obs.NewMetrics()
	rng := rand.New(rand.NewSource(12))
	w0 := baseWorkload(s, rng, 6)

	if _, err := sampler.Neighborhood(rng, w0, 0, 7); err != nil {
		t.Fatal(err)
	}
	if got := sampler.Metrics.SamplerDraws.Load(); got != 7 {
		t.Fatalf("gamma=0 neighborhood counted %d draws, want 7", got)
	}
}

// TestNeighborhoodRNGConsumption: Neighborhood consumes exactly one Uint64
// from the caller's rng regardless of n, so downstream draws from the same
// rng are independent of the neighborhood size.
func TestNeighborhoodRNGConsumption(t *testing.T) {
	s := testSchema()
	w0 := baseWorkload(s, rand.New(rand.NewSource(13)), 8)

	after := func(n int) uint64 {
		sampler, _ := newTestSampler(s)
		rng := rand.New(rand.NewSource(14))
		if _, err := sampler.Neighborhood(rng, w0, 0.01, n); err != nil {
			t.Fatal(err)
		}
		return rng.Uint64()
	}
	if a, b := after(3), after(17); a != b {
		t.Fatalf("caller rng state depends on n: %d vs %d", a, b)
	}
}
