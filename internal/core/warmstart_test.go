package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// tallyCost wraps a cost model and counts evaluation-layer invocations.
type tallyCost struct {
	inner designer.CostModel
	calls atomic.Uint64
}

func (c *tallyCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	c.calls.Add(1)
	return c.inner.Cost(ctx, q, d)
}

// newTallyGuard is newGuard with the evaluation cost model wrapped in a call
// counter (the nominal designer keeps the raw engine, as in the benches).
func newTallyGuard(s *schema.Schema, opts Options) (*CliffGuard, *tallyCost) {
	db := vertsim.Open(s)
	nominal := vertsim.NewDesigner(db, 256<<20)
	metric := distance.NewEuclidean(s.NumColumns())
	sampler := sample.New(metric, sample.NewMutator(s))
	counting := &tallyCost{inner: db}
	return New(nominal, counting, sampler, opts), counting
}

// TestWarmStartBitIdenticalAndSilent pins the unit-cost store's contract on
// the evalcache.Layer wiring: a run over a store that an identical earlier
// run filled must produce bit-identical designs, traces and stats while
// making zero cost-model calls — every unit cost it needs is in the store,
// and the stored values are the exact model outputs — and must add nothing
// to the store.
func TestWarmStartBitIdenticalAndSilent(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	opts := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11, Parallelism: 1}

	store := evalcache.NewShared()
	run := func() (*designer.Design, []Trace, RunStats, *tallyCost, *evalcache.Layer) {
		cg, counting := newTallyGuard(s, opts)
		layer := &evalcache.Layer{Inner: counting, Store: store}
		cg.Cost = layer
		h := cg.Start(context.Background(), w.Clone())
		d, traces, err := h.Await(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return d, traces, h.Stats(), counting, layer
	}

	coldD, coldTraces, coldStats, coldCount, coldLayer := run()
	filled := store.Len()
	if filled == 0 {
		t.Fatal("cold run stored no unit costs")
	}
	if coldCount.calls.Load() == 0 || coldLayer.Misses() != coldCount.calls.Load() {
		t.Fatalf("cold run made %d cost-model calls, %d store misses", coldCount.calls.Load(), coldLayer.Misses())
	}

	warmD, warmTraces, warmStats, warmCount, warmLayer := run()

	if got := warmCount.calls.Load(); got != 0 {
		t.Errorf("warm run made %d cost-model calls, want 0 (identical trajectory is fully memoized)", got)
	}
	if cold, warm := coldLayer.Hits()+coldLayer.Misses(), warmLayer.Hits(); warm != cold || warmLayer.Misses() != 0 {
		t.Errorf("warm run: %d store hits and %d misses, want a hit for each of the cold run's %d lookups", warm, warmLayer.Misses(), cold)
	}
	if store.Len() != filled {
		t.Errorf("the store holds %d entries after the warm run, want the %d the cold run left", store.Len(), filled)
	}
	if warmD.Fingerprint() != coldD.Fingerprint() || warmD.String() != coldD.String() {
		t.Errorf("warm design differs from cold:\n  cold: %s\n  warm: %s", coldD, warmD)
	}
	if len(warmTraces) != len(coldTraces) {
		t.Fatalf("warm run has %d traces, cold %d", len(warmTraces), len(coldTraces))
	}
	for i := range coldTraces {
		if warmTraces[i] != coldTraces[i] {
			t.Errorf("trace %d differs: cold %+v vs warm %+v", i, coldTraces[i], warmTraces[i])
		}
	}
	if warmStats != coldStats {
		t.Errorf("stats differ: cold %+v vs warm %+v", coldStats, warmStats)
	}
}

// TestInitialDesignSeedsRun pins the incumbent-seeding contract: the seeded
// run scores the incumbent on the initial neighborhood, starts from the
// better of {incumbent, nominal}, and can therefore never return a design
// whose worst-case cost regresses vs the incumbent — the safety acceptance
// rule's by-construction branch.
func TestInitialDesignSeedsRun(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	base := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11, Parallelism: 1}

	cg, _ := newTallyGuard(s, base)
	h := cg.Start(context.Background(), w.Clone())
	incumbent, _, err := h.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldStats := h.Stats()
	if coldStats.IncumbentScored || coldStats.SeededFromIncumbent {
		t.Fatalf("unseeded run reported incumbent stats: %+v", coldStats)
	}

	seeded := base
	seeded.InitialDesign = incumbent
	cg2, _ := newTallyGuard(s, seeded)
	h2 := cg2.Start(context.Background(), w.Clone())
	d2, _, err := h2.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := h2.Stats()
	if !stats.IncumbentScored {
		t.Fatal("seeded run did not score the incumbent")
	}
	if stats.FinalWorst > stats.IncumbentWorst {
		t.Errorf("seeded run regressed: FinalWorst %g > IncumbentWorst %g",
			stats.FinalWorst, stats.IncumbentWorst)
	}
	if stats.FinalWorst > coldStats.FinalWorst {
		t.Errorf("seeded run (%g) worse than unseeded (%g) on the same workload",
			stats.FinalWorst, coldStats.FinalWorst)
	}
	if d2 == nil {
		t.Fatal("seeded run returned no design")
	}
}

// TestInitialDesignMatchingNominal covers the fingerprint-equality shortcut:
// seeding with a design identical to the nominal one is scored for free (the
// nominal pass already priced it) and never reported as a seed switch.
func TestInitialDesignMatchingNominal(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)

	cg0, _ := newGuard(s, Options{Gamma: 0, Seed: 1})
	nominal, err := cg0.Nominal.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{Gamma: 0.004, Samples: 10, Iterations: 2, Seed: 11,
		Parallelism: 1, InitialDesign: nominal}
	cg, _ := newGuard(s, opts)
	h := cg.Start(context.Background(), w.Clone())
	if _, _, err := h.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := h.Stats()
	if !stats.IncumbentScored {
		t.Fatal("incumbent identical to nominal was not scored")
	}
	if stats.SeededFromIncumbent {
		t.Fatal("identical incumbent reported as a seed switch")
	}
	if stats.IncumbentWorst != stats.NominalWorst {
		t.Errorf("IncumbentWorst %g != NominalWorst %g for identical designs",
			stats.IncumbentWorst, stats.NominalWorst)
	}
}

// TestGammaZeroWritesNoUnitCosts: a Gamma=0 run takes the nominal early
// return and never calls the loop's cost model, so a layer under it stores
// nothing.
func TestGammaZeroWritesNoUnitCosts(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(1))
	w := testWorkload(s, rng, 8)
	cg, counting := newTallyGuard(s, Options{Gamma: 0, Seed: 1})
	store := evalcache.NewShared()
	cg.Cost = &evalcache.Layer{Inner: counting, Store: store}
	if _, _, err := cg.Start(context.Background(), w).Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 0 || counting.calls.Load() != 0 {
		t.Fatalf("Gamma=0 run stored %d unit costs after %d calls, want none", n, counting.calls.Load())
	}
}
