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
// is the 31 allocations it makes, plus 10%: the mutants are built in pooled
// scratch, filtered there, and only the survivors are built, in one batch.
// It made 284 when every mutant cloned its Spec and built a Query of its
// own, and the frozen vector was accumulated in maps.
func TestNeighborhoodDrawAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	s, month, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	sampler := sample.New(distance.NewEuclidean(s.NumColumns()), sample.NewMutator(s))
	sampler.Parallelism = 1
	rng := rand.New(rand.NewSource(1))
	const bound = 34
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
