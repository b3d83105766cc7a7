package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cliffguard/internal/core"
	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// neighborhoodFixture is the shared input of the neighborhood-evaluation
// benchmarks: R1's first month, a 20-sample neighborhood of it plus the
// month itself, and its nominal vertica design. The neighborhood is sampled
// once, so every variant evaluates the identical workload list.
func neighborhoodFixture(b *testing.B) (*schema.Schema, []*workload.Workload, *designer.Design) {
	b.Helper()
	s := datagen.Warehouse(1)
	cfg := wlgen.R1Config(s, 42)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	cfg.QueriesPerWeek = 150
	set, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var w0 *workload.Workload
	for _, m := range set.Months {
		if m.Len() > 0 {
			w0 = m
			break
		}
	}
	if w0 == nil {
		b.Fatal("empty workload set")
	}
	sc := Vertica(set, 0.002, 7)
	cg := sc.CliffGuard(nil)
	rng := rand.New(rand.NewSource(7))
	neighborhood, err := cg.Sampler.Neighborhood(rng, w0, sc.Gamma, 20)
	if err != nil {
		b.Fatal(err)
	}
	design, err := sc.Nominal.Design(context.Background(), w0)
	if err != nil {
		b.Fatal(err)
	}
	return s, append(neighborhood, w0), design
}

// BenchmarkNeighborhoodEval measures the parallel neighborhood evaluation
// engine on an R1-preset workload: one full Gamma-neighborhood cost pass
// (the inner loop of Algorithm 2) per iteration, at worker counts 1, 2, 4,
// and NumCPU. Each iteration builds a fresh engine and loop, so the
// benchmark measures real what-if estimation, not memo hits — this is the
// regime where the worker pool pays off.
//
// Note: speedup over parallelism=1 requires multiple physical CPUs; on a
// single-core host (GOMAXPROCS=1) all variants perform alike, which is itself
// a useful result — the pool adds no measurable overhead.
func BenchmarkNeighborhoodEval(b *testing.B) {
	schema, neighborhood, design := neighborhoodFixture(b)
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, p := range counts {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Fresh engine and loop per iteration: no warm memo.
				db := vertsim.Open(schema)
				eng := core.New(nil, db, nil, core.Options{Parallelism: p})
				b.StartTimer()
				costs, err := eng.NeighborhoodCosts(context.Background(), neighborhood, design)
				if err != nil {
					b.Fatal(err)
				}
				if len(costs) != len(neighborhood) {
					b.Fatalf("%d costs for %d workloads", len(costs), len(neighborhood))
				}
			}
		})
	}
}

// BenchmarkNeighborhoodEvalWarm is the served warm regime: each iteration
// is the same pass as BenchmarkNeighborhoodEval's, by a fresh loop, through
// an evalcache.Layer over a Shared store an earlier pass populated — so
// every unit cost is a probe of the cross-run store, as for a cliffguardd
// run whose (engine class, queries, design) another run already costed.
func BenchmarkNeighborhoodEvalWarm(b *testing.B) {
	schema, neighborhood, design := neighborhoodFixture(b)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			db := vertsim.Open(schema)
			shared := evalcache.NewShared()
			pass := func() *evalcache.Layer {
				l := &evalcache.Layer{Inner: db, Store: shared}
				if _, err := core.New(nil, l, nil, core.Options{Parallelism: p}).NeighborhoodCosts(context.Background(), neighborhood, design); err != nil {
					b.Fatal(err)
				}
				return l
			}
			pass() // populate the store before timing
			var misses uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				misses += pass().Misses()
			}
			if misses != 0 {
				b.Fatalf("%d warm probes missed the populated store", misses)
			}
		})
	}
}
