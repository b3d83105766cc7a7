package sample

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cliffguard/internal/distance"
	"cliffguard/internal/workload"
)

// sampleAtIntegral is the paper's literal Algorithm 4, kept as a test
// reference: it adds ⌊c⌋ integral copies of every perturbation query instead
// of SampleAt's single fractional-weight entry. The landing distance is
// therefore quantized — with small workloads or small alpha, ⌊c⌋ can round
// the blend well short of (or to zero of) the requested distance — which is
// why SampleAt uses fractional weights.
func sampleAtIntegral(s *Sampler, rng *rand.Rand, w0 *workload.Workload, alpha float64) (*workload.Workload, error) {
	if alpha < 0 {
		return nil, fmt.Errorf("sample: negative distance %g", alpha)
	}
	if w0.Len() == 0 {
		return nil, errors.New("sample: empty target workload")
	}
	if alpha == 0 {
		return w0.Clone(), nil
	}

	frozen := w0.Frozen(workload.MaskSWGO)
	var qset *workload.Workload
	var beta float64
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
		cands := s.Source.Candidates(rng, w0, k, nil)
		var fresh []*workload.Query
		for _, q := range cands {
			if !frozen.HasKey(q.TemplateKey(workload.MaskSWGO)) {
				fresh = append(fresh, q)
			}
		}
		if len(fresh) > 0 {
			cand := workload.New(fresh...)
			if b := s.Metric.Distance(w0, cand); b > alpha {
				qset, beta = cand, b
				break
			}
		}
		if try%3 == 2 && k < 48 {
			k += 4
		}
	}
	if qset == nil {
		return nil, fmt.Errorf("%w (alpha=%g)", ErrNoPerturbation, alpha)
	}

	lambda := math.Sqrt(alpha / beta)
	n := w0.TotalWeight()
	kf := float64(qset.Len())
	copies := int(math.Floor(n * lambda / (kf * (1 - lambda))))

	out := w0.Clone()
	for c := 0; c < copies; c++ {
		for _, it := range qset.Items {
			out.Add(it.Q, it.Weight)
		}
	}
	return out, nil
}

func TestSampleAtIntegral(t *testing.T) {
	s := testSchema()
	sampler, m := newTestSampler(s)
	rng := rand.New(rand.NewSource(8))
	w0 := baseWorkload(s, rng, 12)

	// With a large enough alpha the integral variant lands within the
	// quantization error of floor(c).
	alpha := 0.01
	w1, err := sampleAtIntegral(sampler, rng, w0, alpha)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Distance(w0, w1)
	if got <= 0 || got > alpha*1.5 {
		t.Errorf("integral sample landed at %g for alpha %g", got, alpha)
	}
	// All blend weights are integral multiples of the source weights (copies).
	if w1.Len() <= w0.Len() {
		t.Error("integral sample added no copies")
	}
	// alpha = 0 clones.
	w2, err := sampleAtIntegral(sampler, rng, w0, 0)
	if err != nil || m.Distance(w0, w2) != 0 {
		t.Fatalf("alpha=0: %v", err)
	}
	// Errors mirror SampleAt.
	if _, err := sampleAtIntegral(sampler, rng, &workload.Workload{}, 0.01); err == nil {
		t.Error("empty workload should fail")
	}
	if _, err := sampleAtIntegral(sampler, rng, w0, -1); err == nil {
		t.Error("negative alpha should fail")
	}
	if _, err := sampleAtIntegral(sampler, rng, w0, 9); !errors.Is(err, ErrNoPerturbation) {
		t.Error("unreachable alpha should be ErrNoPerturbation")
	}
}

// TestIntegralLandingReference compares SampleAt with the paper-literal
// ⌊c⌋-copies landing, drawing both from the same RNG seed so they pick the
// same perturbation set. Rounding c down can only shorten the blend, so the
// integral landing never overshoots alpha; SampleAt's fractional weight lands
// at least as close to alpha as the integral one. A slack of 1e-12·alpha
// absorbs float rounding when ⌊c⌋ == c.
func TestIntegralLandingReference(t *testing.T) {
	s := testSchema()
	metrics := []func() distance.Metric{
		func() distance.Metric { return distance.NewEuclidean(s.NumColumns()) },
		func() distance.Metric { return distance.NewSeparate(s.NumColumns()) },
	}
	var cases, collapsed int
	for seed := int64(200); seed < 230; seed++ {
		wrng := rand.New(rand.NewSource(seed))
		w0 := baseWorkload(s, wrng, 5+wrng.Intn(12))
		for _, mk := range metrics {
			for _, alpha := range []float64{0.0008, 0.003, 0.01, 0.03} {
				m := mk()
				sampler := New(m, NewMutator(s))
				drawSeed := seed*1009 + int64(alpha*1e6)
				wF, errF := sampler.SampleAt(rand.New(rand.NewSource(drawSeed)), w0, alpha)
				wI, errI := sampleAtIntegral(sampler, rand.New(rand.NewSource(drawSeed)), w0, alpha)
				if (errF == nil) != (errI == nil) {
					t.Fatalf("seed %d alpha %g %s: SampleAt err %v, integral err %v",
						seed, alpha, m.Name(), errF, errI)
				}
				if errF != nil {
					continue
				}
				cases++
				slack := 1e-12 * alpha
				dF, dI := m.Distance(w0, wF), m.Distance(w0, wI)
				if dI > alpha+slack {
					t.Errorf("seed %d alpha %g %s: integral landing %v overshoots alpha",
						seed, alpha, m.Name(), dI)
				}
				if eF, eI := math.Abs(dF-alpha), math.Abs(dI-alpha); eF > eI+slack {
					t.Errorf("seed %d alpha %g %s: SampleAt |δ-α| = %g, integral %g",
						seed, alpha, m.Name(), eF, eI)
				}
				if dI == 0 {
					collapsed++
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no case drew a sample")
	}
	t.Logf("%d cases; the integral landing collapsed to distance 0 in %d", cases, collapsed)
}
