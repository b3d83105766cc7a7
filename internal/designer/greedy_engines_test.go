package designer_test

import (
	"context"
	"slices"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// nominal is one engine's nominal designer as its Design sees a workload:
// the cost model, the compression step, the candidate pool and the budget.
type nominal struct {
	name       string
	cm         designer.CostModel
	compress   func(*workload.Workload) *workload.Workload
	candidates func(*workload.Workload) []designer.Structure
	budget     int64
}

// r1Nominals returns R1's schema, its first month, and the vertica and
// row-store nominal designers over it, at the budgets their own tests use.
func r1Nominals(tb testing.TB) (*schema.Schema, *workload.Workload, []nominal) {
	s, month, err := designertest.R1Month(1)
	if err != nil {
		tb.Fatal(err)
	}
	vdb, rdb := vertsim.Open(s), rowsim.Open(s)
	vd, rd := vertsim.NewDesigner(vdb, 2560<<20), rowsim.NewDesigner(rdb, 384<<20)
	return s, month, []nominal{
		{"vertsim", vdb, designer.CompressByTemplate, vd.Candidates, vd.Budget},
		{"rowsim", rdb, rd.Compress, rd.Candidates, rd.Budget},
	}
}

// TestGreedyMatchesReferenceOnSessionTables checks Greedy against the
// rescanning reference on the pair tables a vertica and a row-store
// designer session build over a run's workloads on R1's first month: from
// Base at the designer's budget and at smaller ones, and from every
// one-structure seed as AutoAdmin completes it.
func TestGreedyMatchesReferenceOnSessionTables(t *testing.T) {
	s, month, engines := r1Nominals(t)
	ctx := context.Background()
	for _, e := range engines {
		var ws []*workload.Workload
		var pools [][]designer.Structure
		for _, w := range designertest.RunWorkloads(s, month, 1, 4) {
			cw := e.compress(w)
			ws, pools = append(ws, cw), append(pools, e.candidates(cw))
		}
		tables, err := designertest.SessionTables(ctx, e.cm, ws, pools)
		if err != nil {
			t.Fatal(err)
		}
		for i, tab := range tables {
			var starts int
			for _, budget := range []int64{e.budget, e.budget / 4, e.budget / 16} {
				for seed := -1; seed < len(tab.Pool); seed++ {
					taken := make([]bool, len(tab.Pool))
					cur := slices.Clone(tab.Base)
					var used int64
					if seed >= 0 {
						if used = tab.Pool[seed].SizeBytes(); used > budget {
							continue
						}
						taken[seed] = true
						tab.Lower(cur, seed)
					}
					if err := designer.CheckGreedy(tab, tab.Indices(), taken, cur, used, budget); err != nil {
						t.Fatalf("%s table %d, budget %d, seed %d: %v", e.name, i, budget, seed, err)
					}
					starts++
				}
			}
			t.Logf("%s table %d: %d candidates, %d queries, %d starts", e.name, i, len(tab.Pool), len(tab.Queries), starts)
		}
	}
}

// BenchmarkGreedy runs the nominal designer's Greedy from Base on its pair
// table for R1's first month, lazily and with the rescanning reference, on
// vertsim and rowsim. rounds/op counts the rounds of one call: one per
// pick and a last one that finds nothing.
func BenchmarkGreedy(b *testing.B) {
	_, month, engines := r1Nominals(b)
	ctx := context.Background()
	for _, e := range engines {
		cw := e.compress(month)
		tab, err := designer.BuildPairTable(ctx, e.cm, cw, e.candidates(cw))
		if err != nil {
			b.Fatal(err)
		}
		idx, taken, cur := tab.Indices(), make([]bool, len(tab.Pool)), make([]float64, len(tab.Base))
		for _, ref := range []bool{false, true} {
			greedy := (*designer.PairTable).Greedy
			if ref {
				greedy = designer.GreedyReference
			}
			b.Run(e.name+map[bool]string{false: "/lazy", true: "/reference"}[ref], func(b *testing.B) {
				b.ReportAllocs()
				var picks int
				for i := 0; i < b.N; i++ {
					clear(taken)
					copy(cur, tab.Base)
					sel, err := greedy(tab, ctx, idx, taken, cur, 0, e.budget)
					if err != nil {
						b.Fatal(err)
					}
					picks = len(sel)
				}
				b.ReportMetric(float64(picks+1), "rounds/op")
			})
		}
	}
}
