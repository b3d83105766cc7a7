package sample_test

import (
	"math/rand"
	"testing"

	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/distance"
	"cliffguard/internal/sample"
)

// TestNeighborhoodDrawAllocations gates one Neighborhood draw on R1's first
// month, with the mutator's popularity model for the month already built
// and the generator re-seeded so every run takes the same draw. The bound
// is the 284 allocations it makes: every mutant clones its Spec and builds
// a fresh Query with maps, which ROADMAP item 12 means to cut, and a change
// that cuts them should lower the bound with it.
func TestNeighborhoodDrawAllocations(t *testing.T) {
	s, month, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	sampler := sample.New(distance.NewEuclidean(s.NumColumns()), sample.NewMutator(s))
	sampler.Parallelism = 1
	rng := rand.New(rand.NewSource(1))
	const bound = 284
	if n := testing.AllocsPerRun(10, func() {
		rng.Seed(1)
		if _, err := sampler.Neighborhood(rng, month, 0.002, 1); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Fatalf("one Neighborhood draw allocates %.0f times, want at most %d", n, bound)
	} else {
		t.Logf("one Neighborhood draw: %.0f allocations", n)
	}
}
