package aqesim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{{
		Name: "f", Fact: true, Rows: 2_000_000,
		Columns: []schema.ColumnDef{
			{Name: "a", Type: schema.Int64, Cardinality: 50},
			{Name: "b", Type: schema.Int64, Cardinality: 20},
			{Name: "c", Type: schema.Int64, Cardinality: 10},
			{Name: "d", Type: schema.Float64, Cardinality: 100_000},
			{Name: "e", Type: schema.Int64, Cardinality: 8},
		},
	}})
}

func q(spec *workload.Spec) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, spec)
}

func aggQuery(group, pred int) *workload.Query {
	return q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{group},
		GroupBy:    []int{group},
		Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}},
		Preds:      []workload.Pred{{Col: pred, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.05}},
	})
}

func TestNewSampleValidation(t *testing.T) {
	s := testSchema()
	if _, err := NewSample(s, "nope", []int{0}, 0.01); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := NewSample(s, "f", []int{0}, 0); err == nil {
		t.Error("zero fraction should fail")
	}
	if _, err := NewSample(s, "f", []int{0}, 1); err == nil {
		t.Error("fraction 1 should fail")
	}
	if _, err := NewSample(s, "f", []int{99}, 0.01); err == nil {
		t.Error("invalid column should fail")
	}
	sm, err := NewSample(s, "f", []int{0, 2, 0}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Strata) != 2 {
		t.Error("duplicate strata should deduplicate")
	}
	// Size is fraction of the table footprint.
	tbl, _ := s.Table("f")
	if sm.SizeBytes() >= tbl.Rows*tbl.RowWidth() {
		t.Error("sample should be smaller than the table")
	}
}

func TestSampleFractionFloor(t *testing.T) {
	s := testSchema()
	// 50 x 20 x 10 = 10_000 groups; 10_000 * 100 rows / 2M rows = 0.5 floor.
	sm, err := NewSample(s, "f", []int{0, 1, 2}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Fraction < 0.4 {
		t.Errorf("fraction %g should have been raised for per-stratum rows", sm.Fraction)
	}
	// A coarse stratification keeps the requested rate.
	sm2, _ := NewSample(s, "f", []int{2}, 0.01)
	if sm2.Fraction != 0.01 {
		t.Errorf("fraction = %g, want 0.01", sm2.Fraction)
	}
}

func TestCostModelSamplePaths(t *testing.T) {
	s := testSchema()
	db := Open(s)
	query := aggQuery(0, 2) // group by a, filter on c

	base, err := db.Cost(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A sample stratified on {a, c} answers the query cheaply.
	good, _ := NewSample(s, "f", []int{0, 2}, 0.01)
	fast, _ := db.Cost(context.Background(), query, designer.NewDesign(good))
	if fast >= base/5 {
		t.Fatalf("sample cost %g, want far below %g", fast, base)
	}
	// A sample missing the filter column is not answerable.
	bad, _ := NewSample(s, "f", []int{0}, 0.01)
	same, _ := db.Cost(context.Background(), query, designer.NewDesign(bad))
	if same != base {
		t.Fatalf("non-covering sample changed cost: %g vs %g", same, base)
	}
	// Detail (non-aggregate) queries never use samples.
	detail := q(&workload.Spec{Table: "f", SelectCols: []int{3},
		Preds: []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.1}}})
	cDetail, _ := db.Cost(context.Background(), detail, designer.NewDesign(good))
	cDetailBase, _ := db.Cost(context.Background(), detail, nil)
	if cDetail != cDetailBase {
		t.Fatal("detail query must not run on a sample")
	}
}

func TestCostUnsupported(t *testing.T) {
	db := Open(testSchema())
	if _, err := db.Cost(context.Background(), &workload.Query{}, nil); !errors.Is(err, designer.ErrUnsupported) {
		t.Error("spec-less query")
	}
	if _, err := db.Cost(context.Background(), q(&workload.Spec{Table: "zzz"}), nil); !errors.Is(err, designer.ErrUnsupported) {
		t.Error("unknown table")
	}
}

func TestDesignerSelectsWithinBudget(t *testing.T) {
	s := testSchema()
	db := Open(s)
	w := workload.New(
		aggQuery(0, 2), aggQuery(1, 2), aggQuery(2, 4), aggQuery(4, 2),
	)
	budget := int64(64) << 20
	d := NewDesigner(db, budget)
	design, err := d.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if design.Len() == 0 {
		t.Fatal("no samples selected")
	}
	if design.SizeBytes() > budget {
		t.Fatalf("budget exceeded: %d > %d", design.SizeBytes(), budget)
	}
	before, _ := designer.WorkloadCost(context.Background(), db, w, nil)
	after, _ := designer.WorkloadCost(context.Background(), db, w, design)
	if after >= before {
		t.Fatalf("design did not help: %g -> %g", before, after)
	}
}

// TestCliffGuardOverSampleSelection is the generality check: the unchanged
// CliffGuard loop drives the sample-selection designer as a black box.
func TestCliffGuardOverSampleSelection(t *testing.T) {
	s := testSchema()
	db := Open(s)
	nominal := NewDesigner(db, 96<<20)
	metric := distance.NewEuclidean(s.NumColumns())
	sampler := sample.New(metric, sample.NewMutator(s))
	guard := core.New(nominal, db, sampler, core.Options{
		Gamma: 0.05, Samples: 8, Iterations: 4, Seed: 1,
	})

	rng := rand.New(rand.NewSource(1))
	var queries []*workload.Query
	for i := 0; i < 8; i++ {
		queries = append(queries, aggQuery(rng.Intn(3), 2+rng.Intn(3)))
	}
	w := workload.New(queries...)

	design, traces, err := guard.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if design.Len() == 0 {
		t.Fatal("robust sample design empty")
	}
	for _, st := range design.Structures {
		if _, ok := st.(*Sample); !ok {
			t.Fatalf("non-sample structure %T in design", st)
		}
	}
	if len(traces) == 0 {
		t.Fatal("no robust iterations")
	}
	// The loop's invariant holds here too: the final sampled worst case is
	// no worse than the initial nominal design's.
	if traces[len(traces)-1].WorstCase > traces[0].WorstCase {
		t.Fatal("worst case regressed")
	}
}

// TestCostDoesNotAllocate is the allocation gate for every what-if
// call: Cost over a design of answerable and unanswerable samples computes
// each path from scratch, with no memo in front of it, and allocates
// nothing.
func TestCostDoesNotAllocate(t *testing.T) {
	s := testSchema()
	db := Open(s)
	query := aggQuery(0, 2)
	var structures []designer.Structure
	for _, strata := range [][]int{{0, 2}, {0, 1, 2}, {1}, {0}} {
		sm, err := NewSample(s, "f", strata, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		structures = append(structures, sm)
	}
	d := designer.NewDesign(structures...)
	ctx := context.Background()
	want, err := db.Cost(ctx, query, d)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if got, _ := db.Cost(ctx, query, d); got != want {
			t.Fatalf("repeated Cost %g, want %g", got, want)
		}
	}); n != 0 {
		t.Fatalf("Cost allocates %.0f times per call, want 0", n)
	}
}
