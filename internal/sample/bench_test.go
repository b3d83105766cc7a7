package sample

import (
	"math/rand"
	"testing"

	"cliffguard/internal/distance"
	"cliffguard/internal/workload"
)

// BenchmarkSampleAt measures one Gamma-neighborhood draw (Algorithm 4):
// perturbation search, blend, closed-form landing. This is the headline
// sampler number; BenchmarkSampleAtLegacy is the pre-fast-path baseline.
func BenchmarkSampleAt(b *testing.B) {
	s := testSchema()
	sampler, _ := newTestSampler(s)
	rng := rand.New(rand.NewSource(1))
	w0 := baseWorkload(s, rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampler.SampleAt(rng, w0, 0.005); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleAtLegacy is BenchmarkSampleAt over a metric with its
// Quadratic methods hidden: every draw pays the build-and-verify Distance
// evaluations.
func BenchmarkSampleAtLegacy(b *testing.B) {
	s := testSchema()
	sampler := New(legacyMetric{distance.NewEuclidean(s.NumColumns())}, NewMutator(s))
	rng := rand.New(rand.NewSource(1))
	w0 := baseWorkload(s, rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampler.SampleAt(rng, w0, 0.005); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleAtFrozen isolates the frozen-vector cache: cold re-freezes
// W0 every draw (fresh clone), warm reuses the same W0 instance so its
// frozen vector and quadratic self-term amortize across draws.
func BenchmarkSampleAtFrozen(b *testing.B) {
	s := testSchema()
	rng := rand.New(rand.NewSource(1))
	w0 := baseWorkload(s, rng, 20)

	b.Run("cold", func(b *testing.B) {
		sampler, _ := newTestSampler(s)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			if _, err := sampler.SampleAt(rng, w0.Clone(), 0.005); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sampler, _ := newTestSampler(s)
		rng := rand.New(rand.NewSource(2))
		w0.Frozen(workload.MaskSWGO) // outside the loop: prime the frozen cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sampler.SampleAt(rng, w0, 0.005); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistanceEuclidean measures one delta_euclidean evaluation: cold
// pays the freeze (template map + key sort) for both operands, warm hits the
// cached frozen vectors and measures only the sparse merge + quadratic form.
func BenchmarkDistanceEuclidean(b *testing.B) {
	s := testSchema()
	m := distance.NewEuclidean(s.NumColumns())
	rng := rand.New(rand.NewSource(3))
	w0 := baseWorkload(s, rng, 20)
	w1 := baseWorkload(s, rng, 20)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Distance(w0.Clone(), w1.Clone())
		}
	})
	b.Run("warm", func(b *testing.B) {
		m.Distance(w0, w1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Distance(w0, w1)
		}
	})
}

// BenchmarkNeighborhood measures a full n-draw neighborhood at p=1 and
// p=GOMAXPROCS (same seed, bit-identical output).
func BenchmarkNeighborhood(b *testing.B) {
	s := testSchema()
	w0 := baseWorkload(s, rand.New(rand.NewSource(4)), 20)
	for _, par := range []struct {
		name string
		p    int
	}{{"p1", 1}, {"pmax", 0}} {
		b.Run(par.name, func(b *testing.B) {
			sampler, _ := newTestSampler(s)
			sampler.Parallelism = par.p
			rng := rand.New(rand.NewSource(5))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sampler.Neighborhood(rng, w0, 0.01, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMutate measures one template mutation.
func BenchmarkMutate(b *testing.B) {
	s := testSchema()
	mut := NewMutator(s)
	rng := rand.New(rand.NewSource(2))
	w0 := baseWorkload(s, rng, 5)
	base := w0.Items[0].Q
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mut.Mutate(rng, base) == nil {
			b.Fatal("nil mutation")
		}
	}
}
