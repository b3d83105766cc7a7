package portfolio

import (
	"context"
	"math"
	"testing"
	"time"

	"cliffguard/internal/aqesim"
	"cliffguard/internal/designer"
	"cliffguard/internal/ilp"
	"cliffguard/internal/portfolio/portfoliotest"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// Measured optimality bounds for the greedy designers on the oracle
// instances below. They are assertions, not theory: the exhaustive oracle
// measures the actual ratio every run, and these constants pin the measured
// quality so a regression in pruning or selection order fails loudly.
const (
	autoAdminMaxRatio = 1.01 // the (k, m)-merge attains the optimum on all three instances
	greedyMaxRatio    = 1.40 // pure greedy measures up to ~1.35 (aqesim); the seed merge is the fix
)

func oracleSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{{
		Name: "f", Fact: true, Rows: 800_000,
		Columns: []schema.ColumnDef{
			{Name: "a", Type: schema.Int64, Cardinality: 1000},
			{Name: "b", Type: schema.Int64, Cardinality: 100},
			{Name: "c", Type: schema.Int64, Cardinality: 10},
			{Name: "d", Type: schema.Float64, Cardinality: 10_000},
			{Name: "e", Type: schema.Int64, Cardinality: 50},
		},
	}})
}

func oq(spec *workload.Spec) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, spec)
}

// scanQueries builds distinct-template scan/filter queries (vertsim, rowsim).
func scanQueries() []*workload.Query {
	return []*workload.Query{
		oq(&workload.Spec{Table: "f", SelectCols: []int{0, 3},
			Preds: []workload.Pred{{Col: 0, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.001}}}),
		oq(&workload.Spec{Table: "f", SelectCols: []int{1, 3},
			Preds: []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 5, Hi: 5, Sel: 0.01}}}),
		oq(&workload.Spec{Table: "f", SelectCols: []int{2},
			GroupBy: []int{2},
			Aggs:    []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}}}),
		oq(&workload.Spec{Table: "f", SelectCols: []int{4, 3},
			Preds: []workload.Pred{{Col: 4, Op: workload.Eq, Lo: 2, Hi: 2, Sel: 0.02}}}),
		oq(&workload.Spec{Table: "f", SelectCols: []int{0, 1},
			Preds: []workload.Pred{{Col: 1, Op: workload.Between, Lo: 1, Hi: 20, Sel: 0.2}}}),
	}
}

// aggQueries builds aggregate queries (aqesim designs samples only for
// aggregates).
func aggQueries() []*workload.Query {
	mk := func(group, pred int) *workload.Query {
		return oq(&workload.Spec{
			Table:      "f",
			SelectCols: []int{group},
			GroupBy:    []int{group},
			Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}},
			Preds:      []workload.Pred{{Col: pred, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.05}},
		})
	}
	return []*workload.Query{mk(0, 2), mk(1, 2), mk(2, 4), mk(4, 2), mk(2, 0)}
}

// oracleInstance pins an engine to a <= MaxPool candidate universe with a
// budget tight enough that selection is non-trivial (about half the pool's
// total bytes).
func oracleInstance(cost designer.CostModel, provider CandidateProvider, queries []*workload.Query) *portfoliotest.Instance {
	w := designer.CompressByTemplate(workload.New(queries...))
	pool := designer.NewDesign(provider.Candidates(w)...).Structures
	if len(pool) > portfoliotest.MaxPool {
		pool = pool[:portfoliotest.MaxPool]
	}
	var total int64
	for _, s := range pool {
		total += s.SizeBytes()
	}
	return &portfoliotest.Instance{Cost: cost, W: w, Pool: pool, Budget: total / 2}
}

// TestOptimalityOracle is the measured-optimality harness: for each engine,
// enumerate every feasible subset of a small candidate universe with the
// real cost model (the ground truth), then require that (1) ilp.Solve's
// Exact certificate matches an independent brute force of the surrogate
// objective, (2) ILPDesigner attains the enumerated optimum, and (3) the
// greedy designers land within the pinned measured ratios of it.
func TestOptimalityOracle(t *testing.T) {
	s := oracleSchema()
	cases := []struct {
		engine   string
		cost     designer.CostModel
		provider CandidateProvider
		queries  []*workload.Query
	}{
		{
			engine:   "vertsim",
			cost:     vertsim.Open(s),
			provider: vertsim.NewDesigner(vertsim.Open(s), 1<<62),
			queries:  scanQueries(),
		},
		{
			engine:   "rowsim",
			cost:     rowsim.Open(s),
			provider: rowsim.NewDesigner(rowsim.Open(s), 1<<62),
			queries:  scanQueries(),
		},
		{
			engine:   "aqesim",
			cost:     aqesim.Open(s),
			provider: aqesim.NewDesigner(aqesim.Open(s), 1<<62),
			queries:  aggQueries(),
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.engine, func(t *testing.T) {
			inst := oracleInstance(tc.cost, tc.provider, tc.queries)
			if len(inst.Pool) < 4 {
				t.Fatalf("pool too small for a meaningful oracle: %d candidates", len(inst.Pool))
			}
			opt, err := inst.Enumerate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Feasible < 2 {
				t.Fatalf("budget admits only %d subsets; instance is degenerate", opt.Feasible)
			}
			t.Logf("%s: %d candidates, %d feasible subsets, optimum %.3f (subset %v)",
				tc.engine, len(inst.Pool), opt.Feasible, opt.Cost, opt.Subset)

			// (1) The ILP solver vs an independent brute force of its own
			// surrogate objective.
			prob, err := inst.Problem(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := ilp.Solve(prob, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Exact {
				t.Fatalf("ilp.Solve not exact on a %d-candidate instance (%d nodes)", len(inst.Pool), sol.Nodes)
			}
			brute, err := portfoliotest.BruteForceObjective(prob)
			if err != nil {
				t.Fatal(err)
			}
			if !approx(sol.Objective, brute) {
				t.Fatalf("ilp objective %.9f != brute force %.9f", sol.Objective, brute)
			}

			// (2) ILPDesigner end to end: Exact certificate and the
			// enumerated (real-model) optimum.
			ilpd := &ILPDesigner{Cost: tc.cost, Provider: portfoliotest.FixedProvider(inst.Pool),
				Budget: inst.Budget, MaxCandidates: -1}
			res, err := ilpd.DesignExact(ctx, inst.W)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatalf("ILPDesigner not exact (%d nodes)", res.Nodes)
			}
			ilpCost, err := inst.Evaluate(ctx, res.Design)
			if err != nil {
				t.Fatal(err)
			}
			if !approx(ilpCost, opt.Cost) {
				t.Fatalf("ILPDesigner design costs %.9f, enumerated optimum %.9f", ilpCost, opt.Cost)
			}

			// (3) The greedy designers within their pinned measured ratios.
			aa := &AutoAdmin{Cost: tc.cost, Provider: portfoliotest.FixedProvider(inst.Pool), Budget: inst.Budget}
			ad, err := aa.Design(ctx, inst.W)
			if err != nil {
				t.Fatal(err)
			}
			if ad.SizeBytes() > inst.Budget {
				t.Fatalf("AutoAdmin exceeded the budget: %d > %d", ad.SizeBytes(), inst.Budget)
			}
			aaCost, err := inst.Evaluate(ctx, ad)
			if err != nil {
				t.Fatal(err)
			}
			aaRatio := aaCost / opt.Cost
			t.Logf("AutoAdmin ratio %.4f", aaRatio)
			if aaRatio > autoAdminMaxRatio {
				t.Errorf("AutoAdmin ratio %.4f > %.2f", aaRatio, autoAdminMaxRatio)
			}

			gd, err := designer.GreedySelect(ctx, tc.cost, inst.W, inst.Pool, inst.Budget)
			if err != nil {
				t.Fatal(err)
			}
			gCost, err := inst.Evaluate(ctx, gd)
			if err != nil {
				t.Fatal(err)
			}
			gRatio := gCost / opt.Cost
			t.Logf("GreedySelect ratio %.4f", gRatio)
			if gRatio > greedyMaxRatio {
				t.Errorf("GreedySelect ratio %.4f > %.2f", gRatio, greedyMaxRatio)
			}
		})
	}
}

func approx(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= 1e-9*scale
}
