package rowsim

import (
	"context"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// TestCostDoesNotAllocate is the allocation gate for every what-if
// call: Cost over a design of indexes and a materialized view computes the
// full scan and every serving path from scratch, with no memo in front of
// it, and allocates nothing. This pins the coverage and width tests to the
// query's clause bitsets.
func TestCostDoesNotAllocate(t *testing.T) {
	s := testSchema()
	db := Open(s)
	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{2},
		GroupBy:    []int{2},
		Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}},
		Preds:      []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 4, Hi: 4, Sel: 0.1}},
	})
	covering, err := NewIndex(s, "f", []int{2}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewIndex(s, "f", []int{2, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	unmatched, err := NewIndex(s, "f", []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := NewMatView(s, "f", []int{2, 1}, []workload.Agg{
		{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}})
	if err != nil {
		t.Fatal(err)
	}
	d := designer.NewDesign(covering, plain, unmatched, mv)
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
