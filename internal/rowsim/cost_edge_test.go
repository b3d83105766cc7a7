package rowsim

import (
	"context"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

func edgeQ(spec *workload.Spec) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, spec)
}

// TestIndexPrefixSemantics pins the key-prefix matching rules: equalities
// extend the prefix, a range terminates it, and an index whose leading key
// column has no predicate is inapplicable.
func TestIndexPrefixSemantics(t *testing.T) {
	s := testSchema()
	db := Open(s)

	eqA := workload.Pred{Col: 0, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.001}
	eqB := workload.Pred{Col: 1, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.01}
	rangeA := workload.Pred{Col: 0, Op: workload.Between, Lo: 1, Hi: 100, Sel: 0.1}

	cost := func(preds []workload.Pred, idx *Index) float64 {
		q := edgeQ(&workload.Spec{Table: "f", SelectCols: []int{3}, Preds: preds})
		c, err := db.Cost(context.Background(), q, designer.NewDesign(idx))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	idxAB, _ := NewIndex(s, "f", []int{0, 1}, nil)
	idxGap, _ := NewIndex(s, "f", []int{0, 4, 1}, nil)

	// Both equalities match the (a,b) prefix; with a key gap (a,e,b) only
	// the leading equality narrows the fetch.
	both := cost([]workload.Pred{eqA, eqB}, idxAB)
	gapped := cost([]workload.Pred{eqA, eqB}, idxGap)
	if both >= gapped {
		t.Errorf("full prefix %g should beat gapped prefix %g", both, gapped)
	}

	// A range on the leading key is usable but terminates the prefix: the
	// second equality cannot narrow the fetch, so costs match the range-only
	// match on the same index.
	q1 := edgeQ(&workload.Spec{Table: "f", SelectCols: []int{3},
		Preds: []workload.Pred{rangeA, eqB}})
	q2 := edgeQ(&workload.Spec{Table: "f", SelectCols: []int{3},
		Preds: []workload.Pred{rangeA, eqB}})
	idxA, _ := NewIndex(s, "f", []int{0}, nil)
	cLong, _ := db.Cost(context.Background(), q1, designer.NewDesign(idxAB))
	cShort, _ := db.Cost(context.Background(), q2, designer.NewDesign(idxA))
	if cLong != cShort {
		t.Errorf("range-terminated prefix: %g vs %g", cLong, cShort)
	}

	// No predicate on the leading key: index inapplicable, a covering one
	// too (an index-only scan of all its entries would beat the table scan).
	qNoLead := edgeQ(&workload.Spec{Table: "f", SelectCols: []int{3},
		Preds: []workload.Pred{eqB}})
	base, _ := db.Cost(context.Background(), qNoLead, nil)
	idxABCover, _ := NewIndex(s, "f", []int{0, 1}, []int{3})
	for _, idx := range []*Index{idxAB, idxABCover} {
		if idx.Serves(qNoLead) {
			t.Errorf("%s serves a query without a leading-key predicate", idx.Key())
		}
		withIdx, _ := db.Cost(context.Background(), qNoLead, designer.NewDesign(idx))
		if withIdx != base {
			t.Errorf("leading-key miss on %s should be inapplicable: %g vs %g", idx.Key(), withIdx, base)
		}
	}
}

// TestExecutorComparisonNarrowing exercises every comparison operator on the
// index-narrowing path against a scan reference.
func TestExecutorComparisonNarrowing(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 4_000, 11)
	db := OpenWithData(data)

	idx, _ := NewIndex(s, "f", []int{2}, []int{0})
	ops := []struct {
		op workload.CmpOp
		lo int64
	}{
		{workload.Lt, 120}, {workload.Le, 120}, {workload.Gt, 180}, {workload.Ge, 180},
	}
	for _, tc := range ops {
		q := edgeQ(&workload.Spec{
			Table:      "f",
			SelectCols: []int{0},
			Preds:      []workload.Pred{{Col: 2, Op: tc.op, Lo: tc.lo, Hi: tc.lo, Sel: 0.4}},
		})
		scan, err := db.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := db.Execute(q, designer.NewDesign(idx))
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(canonical(scan.Rows), canonical(fast.Rows)) {
			t.Fatalf("op %v: results disagree", tc.op)
		}
		if fast.ScannedRows > scan.ScannedRows {
			t.Fatalf("op %v: narrowing read more rows (%d vs %d)", tc.op, fast.ScannedRows, scan.ScannedRows)
		}
	}
}

func TestExecutorLimitAndOrder(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 4_000, 11)
	db := OpenWithData(data)

	q := edgeQ(&workload.Spec{
		Table:      "f",
		SelectCols: []int{2},
		Preds:      []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 2, Hi: 2, Sel: 0.125}},
		OrderBy:    []workload.OrderCol{{Col: 2, Desc: true}},
		Limit:      5,
	})
	res, err := db.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 5 {
		t.Fatalf("limit not applied: %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Key[0] < res.Rows[i].Key[0] {
			t.Fatal("DESC order violated")
		}
	}
}

func TestDesignerFamilyMatViewCandidates(t *testing.T) {
	// A family of near-duplicate aggregate templates must yield a family MV
	// whose aggregate set unions the members'. Family clustering needs >=80%
	// column containment, so the members share a wide column core.
	cols := make([]schema.ColumnDef, 10)
	for i := range cols {
		cols[i] = schema.ColumnDef{Name: string(rune('a' + i)), Type: schema.Int64, Cardinality: 100}
	}
	s := schema.MustNew([]schema.TableDef{{Name: "f", Fact: true, Rows: 500_000, Columns: cols}})
	db := Open(s)
	d := NewDesigner(db, 1<<40)

	mk := func(aggCol int) *workload.Query {
		return edgeQ(&workload.Spec{
			Table:      "f",
			SelectCols: []int{2, 5, 6, 7, 8, 9},
			GroupBy:    []int{2},
			Aggs: []workload.Agg{
				{Fn: workload.Count, Col: -1},
				{Fn: workload.Sum, Col: aggCol},
			},
			Preds: []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.01}},
		})
	}
	w := workload.New(mk(3), mk(4), mk(0))
	cands := d.Candidates(w)
	found := false
	for _, c := range cands {
		mv, ok := c.(*MatView)
		if !ok {
			continue
		}
		hasSum3 := mv.HasAgg(workload.Agg{Fn: workload.Sum, Col: 3})
		hasSum4 := mv.HasAgg(workload.Agg{Fn: workload.Sum, Col: 4})
		hasSum0 := mv.HasAgg(workload.Agg{Fn: workload.Sum, Col: 0})
		if hasSum3 && hasSum4 && hasSum0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no family materialized view unions the member aggregates")
	}
}
