package engine

import (
	"context"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

func TestOpenKindsAndAliases(t *testing.T) {
	cases := map[string]string{
		"":         KindVertica,
		"vertica":  KindVertica,
		"vertsim":  KindVertica,
		"Vertica":  KindVertica,
		"rowstore": KindRowStore,
		"rowsim":   KindRowStore,
		"dbmsx":    KindRowStore,
		"approx":   KindApprox,
		"aqesim":   KindApprox,
		"aqe":      KindApprox,
	}
	for alias, want := range cases {
		eng, err := Open(Spec{Kind: alias})
		if err != nil {
			t.Fatalf("Open(%q): %v", alias, err)
		}
		if eng.Kind() != want {
			t.Errorf("Open(%q).Kind() = %q, want %q", alias, eng.Kind(), want)
		}
		if eng.Schema() == nil {
			t.Errorf("Open(%q) has nil schema", alias)
		}
		if eng.NominalDesigner(64<<20) == nil {
			t.Errorf("Open(%q) has nil nominal designer", alias)
		}
	}
	if _, err := Open(Spec{Kind: "oracle"}); err == nil {
		t.Error("unknown kind must error")
	}
}

// TestScaleOverflowRejected: a scale whose warehouse row counts overflow
// int64 is an error from Normalize and Open, not a panic; the largest safe
// scale opens.
func TestScaleOverflowRejected(t *testing.T) {
	for _, scale := range []int64{datagen.MaxWarehouseScale + 1, 1 << 60} {
		if _, err := (Spec{Kind: KindRowStore, Scale: scale}).Normalize(); err == nil {
			t.Errorf("Normalize accepted scale %d", scale)
		}
		if _, err := Open(Spec{Kind: KindRowStore, Scale: scale}); err == nil {
			t.Errorf("Open accepted scale %d", scale)
		}
	}
	eng, err := Open(Spec{Kind: KindRowStore, Scale: datagen.MaxWarehouseScale})
	if err != nil {
		t.Fatal(err)
	}
	if tbl, ok := eng.Schema().Table("sales"); !ok || tbl.Rows <= 0 {
		t.Fatalf("sales table at the largest scale: %+v", tbl)
	}
}

func TestOpenMatchesLegacyConstructors(t *testing.T) {
	s := datagen.Warehouse(1)
	eng, err := Open(Spec{Kind: KindVertica, Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Unwrap().(*vertsim.DB); !ok {
		t.Fatalf("vertica Unwrap() = %T, want *vertsim.DB", eng.Unwrap())
	}
	reng, err := Open(Spec{Kind: KindRowStore, Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	rdb, ok := reng.Unwrap().(*rowsim.DB)
	if !ok {
		t.Fatalf("rowstore Unwrap() = %T, want *rowsim.DB", reng.Unwrap())
	}

	// The engine facade must cost identically to the wrapped simulator.
	tbl := s.Tables()[0]
	q := workload.FromSpec(1, time.Time{}, &workload.Spec{
		Table:      tbl.Name,
		SelectCols: []int{tbl.Columns[0].ID, tbl.Columns[1].ID},
		Preds: []workload.Pred{{
			Col: tbl.Columns[0].ID, Op: workload.Eq, Lo: 1, Hi: 1,
			Sel: 1 / float64(tbl.Columns[0].Cardinality),
		}},
	})
	ctx := context.Background()
	got, err1 := reng.Cost(ctx, q, nil)
	want, err2 := rdb.Cost(ctx, q, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("cost errors: %v / %v", err1, err2)
	}
	if got != want {
		t.Fatalf("engine cost %g != simulator cost %g", got, want)
	}
}

func TestClassFingerprintSharingContract(t *testing.T) {
	// Same kind + same schema declaration => same class (cross-tenant memo
	// sharing is keyed on this).
	a, _ := Open(Spec{Kind: KindRowStore, Scale: 1})
	b, _ := Open(Spec{Kind: KindRowStore, Scale: 1})
	if a.Class() != b.Class() {
		t.Error("equal rowstore specs must share a class")
	}
	// Different kind or schema => different class.
	v, _ := Open(Spec{Kind: KindVertica, Scale: 1})
	if v.Class() == a.Class() {
		t.Error("vertica and rowstore must not share a class")
	}
	big, _ := Open(Spec{Kind: KindRowStore, Scale: 4})
	if big.Class() == a.Class() {
		t.Error("different scales must not share a class")
	}
	// Executor-backed engines are never shared (mutable knobs).
	data := datagen.Generate(datagen.Warehouse(1), 64, 1)
	d1, err := Open(Spec{Kind: KindRowStore, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := Open(Spec{Kind: KindRowStore, Data: data})
	if d1.Class() == a.Class() || d1.Class() == d2.Class() {
		t.Error("data-backed engines must have unique classes")
	}
	if _, err := Open(Spec{Kind: KindApprox, Data: data}); err == nil {
		t.Error("approx engine with a dataset must error")
	}
}
