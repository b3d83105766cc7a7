package cliffguard_test

import (
	"context"
	"testing"

	"cliffguard"
)

// openEngine opens an engine through the facade's one engine constructor.
func openEngine(t *testing.T, spec cliffguard.EngineSpec) cliffguard.Engine {
	t.Helper()
	eng, err := cliffguard.OpenEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPublicAPIRoundTrip walks the whole public surface: schema, parser,
// workload, both engines, nominal designers, the designable filter, and the
// CliffGuard guard itself.
func TestPublicAPIRoundTrip(t *testing.T) {
	s, err := cliffguard.NewSchema([]cliffguard.TableDef{{
		Name: "orders", Fact: true, Rows: 200_000,
		Columns: []cliffguard.ColumnDef{
			{Name: "id", Type: cliffguard.Int64, Cardinality: 200_000},
			{Name: "cust", Type: cliffguard.Int64, Cardinality: 5_000},
			{Name: "day", Type: cliffguard.Int64, Cardinality: 365},
			{Name: "region", Type: cliffguard.String, Cardinality: 20},
			{Name: "total", Type: cliffguard.Float64, Cardinality: 50_000},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}

	parser := cliffguard.NewParser(s)
	q1, err := parser.Parse("SELECT region, COUNT(*), SUM(total) FROM orders WHERE cust = 99 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := parser.Parse("SELECT id, total FROM orders WHERE day BETWEEN 100 AND 120 ORDER BY total DESC LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	w := cliffguard.NewWorkload(q1, q2)

	// Columnar engine path.
	veng := openEngine(t, cliffguard.EngineSpec{Kind: cliffguard.EngineVertica, Schema: s})
	vdb := veng.Unwrap().(*cliffguard.VerticaDB)
	nominal := veng.NominalDesigner(64 << 20)
	nd, err := nominal.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	before, err := cliffguard.WorkloadCost(context.Background(), vdb, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := cliffguard.WorkloadCost(context.Background(), vdb, w, nd)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("nominal design did not help: %g -> %g", before, after)
	}

	guard, err := cliffguard.New(nominal, vdb, s, cliffguard.Options{
		Gamma: 0.01, Samples: 8, Iterations: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rd, traces, err := guard.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() == 0 {
		t.Fatal("robust design empty")
	}
	if len(traces) == 0 {
		t.Fatal("no traces")
	}

	// Row-store engine path.
	reng := openEngine(t, cliffguard.EngineSpec{Kind: cliffguard.EngineRowStore, Schema: s})
	rdb := reng.Unwrap().(*cliffguard.RowStoreDB)
	rnominal := reng.NominalDesigner(32 << 20)
	rrd, err := rnominal.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	rBefore, _ := cliffguard.WorkloadCost(context.Background(), rdb, w, nil)
	rAfter, _ := cliffguard.WorkloadCost(context.Background(), rdb, w, rrd)
	if rAfter >= rBefore {
		t.Fatalf("row-store design did not help: %g -> %g", rBefore, rAfter)
	}

	// Designable filter.
	provider, ok := nominal.(cliffguard.CandidateProvider)
	if !ok {
		t.Fatal("nominal designer must expose candidates")
	}
	d := cliffguard.FilterDesignable(context.Background(), vdb, provider, w, 3)
	if d.Len() == 0 {
		t.Fatal("both queries should be designable at 3x")
	}

	// Distance metrics.
	if cliffguard.NewEuclidean(s).Distance(w, w) != 0 {
		t.Fatal("self distance nonzero")
	}
	if cliffguard.NewSeparate(s).Distance(w, w) != 0 {
		t.Fatal("separate self distance nonzero")
	}
	lm := cliffguard.NewLatencyMetric(s, 0.2, vdb.BaselineCost)
	if lm.Distance(w, w) != 0 {
		t.Fatal("latency self distance nonzero")
	}
}

// TestPublicAPIExecutors checks data-backed engines.
func TestPublicAPIExecutors(t *testing.T) {
	s := cliffguard.Warehouse(1)
	data := cliffguard.GenerateData(s, 10_000, 3)

	parser := cliffguard.NewParser(s)
	q, err := parser.Parse("SELECT region, COUNT(*) FROM sales WHERE store_id = 7 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}

	vdb := openEngine(t, cliffguard.EngineSpec{Kind: cliffguard.EngineVertica, Data: data}).Unwrap().(*cliffguard.VerticaDB)
	vres, err := vdb.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rdb := openEngine(t, cliffguard.EngineSpec{Kind: cliffguard.EngineRowStore, Data: data}).Unwrap().(*cliffguard.RowStoreDB)
	rres, err := rdb.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both engines agree on the result set size and the COUNT totals.
	if len(vres.Rows) != len(rres.Rows) {
		t.Fatalf("engines disagree: %d vs %d groups", len(vres.Rows), len(rres.Rows))
	}
	var vTotal, rTotal float64
	for i := range vres.Rows {
		vTotal += vres.Rows[i].Aggs[0]
		rTotal += rres.Rows[i].Aggs[0]
	}
	if vTotal != rTotal {
		t.Fatalf("engines disagree on counts: %g vs %g", vTotal, rTotal)
	}
}

// TestGeneratedWorkloadsAPI exercises the R1/S1/S2 generators through the
// facade at a reduced scale.
func TestGeneratedWorkloadsAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("generator test")
	}
	s := cliffguard.Warehouse(1)
	set, err := cliffguard.S1Workload(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Months) == 0 || len(set.Queries) == 0 {
		t.Fatal("empty workload set")
	}
}

// TestApproxEngineAPI exercises the stratified-sample design problem through
// the facade.
func TestApproxEngineAPI(t *testing.T) {
	s := cliffguard.Warehouse(1)
	parser := cliffguard.NewParser(s)
	q, err := parser.Parse("SELECT region, COUNT(*), SUM(total) FROM sales WHERE channel = 'v1' GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	w := cliffguard.NewWorkload(q)

	eng := openEngine(t, cliffguard.EngineSpec{Kind: cliffguard.EngineApprox, Schema: s})
	db := eng.Unwrap().(*cliffguard.ApproxDB)
	nominal := eng.NominalDesigner(256 << 20)
	d, err := nominal.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("no samples selected")
	}
	if _, ok := d.Structures[0].(*cliffguard.Sample); !ok {
		t.Fatalf("structure type %T, want *Sample", d.Structures[0])
	}
	before, _ := cliffguard.WorkloadCost(context.Background(), db, w, nil)
	after, _ := cliffguard.WorkloadCost(context.Background(), db, w, d)
	if after >= before {
		t.Fatalf("sample design did not help: %g -> %g", before, after)
	}

	guard, err := cliffguard.New(nominal, db, s, cliffguard.Options{Gamma: 0.004, Samples: 8, Iterations: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guard.Design(context.Background(), w); err != nil {
		t.Fatal(err)
	}
}
