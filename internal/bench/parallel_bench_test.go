package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cliffguard/internal/core"
	"cliffguard/internal/datagen"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

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
	schema := datagen.Warehouse(1)
	cfg := wlgen.R1Config(schema, 42)
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

	// One scenario provides the sampler and the nominal design; the
	// neighborhood is sampled once and shared by all sub-benchmarks so every
	// variant evaluates the identical workload list.
	sc := Vertica(set, 0.002, 7)
	cg := sc.CliffGuard(nil)
	rng := rand.New(rand.NewSource(7))
	neighborhood, err := cg.Sampler.Neighborhood(rng, w0, sc.Gamma, 20)
	if err != nil {
		b.Fatal(err)
	}
	neighborhood = append(neighborhood, w0)
	design, err := sc.Nominal.Design(context.Background(), w0)
	if err != nil {
		b.Fatal(err)
	}

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

// BenchmarkNeighborhoodEvalWarm is the cache-hit regime: the same engine is
// reused across iterations, so every cost is a memo lookup. This bounds the
// coordination overhead of the worker pool relative to pure cache reads.
func BenchmarkNeighborhoodEvalWarm(b *testing.B) {
	schema := datagen.Warehouse(1)
	cfg := wlgen.R1Config(schema, 42)
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
	sc := Vertica(set, 0.002, 7)
	cg := sc.CliffGuard(nil)
	rng := rand.New(rand.NewSource(7))
	neighborhood, err := cg.Sampler.Neighborhood(rng, w0, sc.Gamma, 20)
	if err != nil {
		b.Fatal(err)
	}
	neighborhood = append(neighborhood, w0)
	design, err := sc.Nominal.Design(context.Background(), w0)
	if err != nil {
		b.Fatal(err)
	}

	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			db := vertsim.Open(schema)
			eng := core.New(nil, db, nil, core.Options{Parallelism: p})
			if _, err := eng.NeighborhoodCosts(context.Background(), neighborhood, design); err != nil {
				b.Fatal(err) // warm the cache before timing
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.NeighborhoodCosts(context.Background(), neighborhood, design); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
