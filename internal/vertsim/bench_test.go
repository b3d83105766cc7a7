package vertsim

import (
	"context"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

func benchQuery() *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{
		Table:      "f",
		SelectCols: []int{1},
		GroupBy:    []int{1},
		Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 2}},
		Preds:      []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 42, Hi: 42, Sel: 1.0 / 300}},
	})
}

// BenchmarkExecutorScan measures a full super-projection scan with
// aggregation over the physical data.
func BenchmarkExecutorScan(b *testing.B) {
	s := execSchema()
	db := OpenWithData(datagen.Generate(s, 5_000, 7))
	q := benchQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorProjection measures the sort-matched projection path
// (binary-search narrowing) on the same query.
func BenchmarkExecutorProjection(b *testing.B) {
	s := execSchema()
	db := OpenWithData(datagen.Generate(s, 5_000, 7))
	q := benchQuery()
	p, err := NewProjection(s, "f", []int{1, 2}, []workload.OrderCol{{Col: 2}})
	if err != nil {
		b.Fatal(err)
	}
	d := designer.NewDesign(p)
	if _, err := db.Execute(q, d); err != nil { // build the permutation once
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

// costDesign is a four-projection design over f in which benchQuery is
// covered by two projections (one sort-matched) and not by the other two.
func costDesign(tb testing.TB, s *schema.Schema) *designer.Design {
	var ps []designer.Structure
	for _, spec := range []struct {
		cols []int
		sort []workload.OrderCol
	}{
		{[]int{1, 2}, []workload.OrderCol{{Col: 2}}},
		{[]int{0, 1, 2, 3}, []workload.OrderCol{{Col: 1}}},
		{[]int{0, 3}, []workload.OrderCol{{Col: 0}}},
		{[]int{2, 4, 5}, nil},
	} {
		p, err := NewProjection(s, "f", spec.cols, spec.sort)
		if err != nil {
			tb.Fatal(err)
		}
		ps = append(ps, p)
	}
	return designer.NewDesign(ps...)
}

// TestCostDoesNotAllocate is the allocation gate for the hottest
// call in the system: Cost over a multi-projection design computes every
// path from scratch, with no memo in front of it, reading the query's
// clause bitsets and the projections' sort keys, and touches the heap not
// at all.
func TestCostDoesNotAllocate(t *testing.T) {
	s := testSchema()
	db := Open(s)
	q := benchQuery()
	d := costDesign(t, s)
	ctx := context.Background()
	want, err := db.Cost(ctx, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if got, _ := db.Cost(ctx, q, d); got != want {
			t.Fatalf("repeated Cost %g, want %g", got, want)
		}
	}); n != 0 {
		t.Fatalf("Cost allocates %.0f times per call, want 0", n)
	}
}

// TestNewProjectionAllocations gates candidate construction: the column
// bitset, the deduped sort key, the projection and its key string, and
// nothing else (no fmt, no map).
func TestNewProjectionAllocations(t *testing.T) {
	s := testSchema()
	cols := []int{0, 1, 2, 3}
	sortCols := []workload.OrderCol{{Col: 2}, {Col: 1, Desc: true}, {Col: 2}, {Col: 0}}
	p, err := NewProjection(s, "f", cols, sortCols)
	if err != nil {
		t.Fatal(err)
	}
	if want := "proj:f:f:sort=2,1-,0"; p.Key() != want {
		t.Fatalf("key %q, want %q", p.Key(), want)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := NewProjection(s, "f", cols, sortCols); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("NewProjection allocates %.0f times, want at most 4", n)
	}
}

// BenchmarkWhatIfCost measures one what-if estimate over a multi-projection
// design: the call the designers' pair tables and CliffGuard's neighborhood
// evaluation make most.
func BenchmarkWhatIfCost(b *testing.B) {
	s := testSchema()
	db := Open(s)
	q := benchQuery()
	d := costDesign(b, s)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Cost(ctx, q, d); err != nil {
			b.Fatal(err)
		}
	}
}
