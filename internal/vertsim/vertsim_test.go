package vertsim

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{
		{
			Name: "f", Fact: true, Rows: 1_000_000,
			Columns: []schema.ColumnDef{
				{Name: "a", Type: schema.Int64, Cardinality: 1000},
				{Name: "b", Type: schema.Int64, Cardinality: 100},
				{Name: "c", Type: schema.Int64, Cardinality: 10},
				{Name: "d", Type: schema.Float64, Cardinality: 10_000},
				{Name: "e", Type: schema.String, Cardinality: 50},
				{Name: "g", Type: schema.Int64, Cardinality: 365},
			},
		},
		{
			Name: "dim", Rows: 100,
			Columns: []schema.ColumnDef{
				{Name: "k", Type: schema.Int64, Cardinality: 100},
			},
		},
	})
}

func q(spec *workload.Spec) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, spec)
}

func TestNewProjectionValidation(t *testing.T) {
	s := testSchema()
	if _, err := NewProjection(s, "nope", []int{0}, nil); err == nil {
		t.Error("unknown anchor should fail")
	}
	if _, err := NewProjection(s, "f", nil, nil); err == nil {
		t.Error("empty projection should fail")
	}
	if _, err := NewProjection(s, "f", []int{999}, nil); err == nil {
		t.Error("invalid column should fail")
	}
	if _, err := NewProjection(s, "f", []int{6}, nil); err == nil {
		t.Error("column from another table should fail")
	}
	if _, err := NewProjection(s, "f", []int{0}, []workload.OrderCol{{Col: 1}}); err == nil {
		t.Error("sort column outside projection should fail")
	}
	// Duplicates are deduplicated, not rejected.
	p, err := NewProjection(s, "f", []int{0, 0, 1}, []workload.OrderCol{{Col: 0}, {Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cols.Len() != 2 || len(p.SortCols) != 1 {
		t.Errorf("dedup failed: %v / %v", p.Cols, p.SortCols)
	}
}

func TestProjectionIdentityAndSize(t *testing.T) {
	s := testSchema()
	p1, _ := NewProjection(s, "f", []int{0, 1}, []workload.OrderCol{{Col: 0}})
	p2, _ := NewProjection(s, "f", []int{1, 0}, []workload.OrderCol{{Col: 0}})
	p3, _ := NewProjection(s, "f", []int{0, 1}, []workload.OrderCol{{Col: 1}})
	if p1.Key() != p2.Key() {
		t.Error("column order should not change identity")
	}
	if p1.Key() == p3.Key() {
		t.Error("sort order must change identity")
	}
	// Sorted projections are compressed; unsorted are not.
	u, _ := NewProjection(s, "f", []int{0, 1}, nil)
	if p1.SizeBytes() >= u.SizeBytes() {
		t.Errorf("sorted size %d should be below unsorted %d", p1.SizeBytes(), u.SizeBytes())
	}
	// 2 int64 cols * 1M rows * compression.
	want := int64(float64(2*8*1_000_000) * sortedCompression)
	if p1.SizeBytes() != want {
		t.Errorf("size = %d, want %d", p1.SizeBytes(), want)
	}
}

func TestCostModelBasics(t *testing.T) {
	s := testSchema()
	db := Open(s)

	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{0, 3},
		Preds:      []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 5, Hi: 5, Sel: 0.01}},
	})
	base, err := db.Cost(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base <= fixedOverheadMs {
		t.Fatalf("base cost %g too low", base)
	}

	// A covering projection sorted by the predicate column is much cheaper.
	proj, _ := NewProjection(s, "f", []int{0, 1, 3}, []workload.OrderCol{{Col: 1}})
	fast, err := db.Cost(context.Background(), query, designer.NewDesign(proj))
	if err != nil {
		t.Fatal(err)
	}
	if fast >= base/10 {
		t.Fatalf("sorted covering projection: %g, want < base/10 (%g)", fast, base/10)
	}

	// A non-covering projection does not help.
	narrow, _ := NewProjection(s, "f", []int{0, 1}, []workload.OrderCol{{Col: 1}})
	same, err := db.Cost(context.Background(), query, designer.NewDesign(narrow))
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Fatalf("non-covering projection changed cost: %g vs %g", same, base)
	}

	// A covering projection with an unrelated sort order gives only the
	// compression advantage.
	unrelated, _ := NewProjection(s, "f", []int{0, 1, 3}, []workload.OrderCol{{Col: 0}})
	mid, err := db.Cost(context.Background(), query, designer.NewDesign(unrelated))
	if err != nil {
		t.Fatal(err)
	}
	if mid >= base || mid <= fast {
		t.Fatalf("coverage-only cost %g should sit between %g and %g", mid, fast, base)
	}
}

func TestCostModelMonotoneInDesign(t *testing.T) {
	s := testSchema()
	db := Open(s)
	rng := rand.New(rand.NewSource(1))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := &workload.Spec{Table: "f"}
		for i := 0; i < 1+r.Intn(3); i++ {
			spec.SelectCols = append(spec.SelectCols, r.Intn(6))
		}
		spec.Preds = append(spec.Preds, workload.Pred{
			Col: r.Intn(6), Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.01})
		query := q(spec)

		base, err := db.Cost(context.Background(), query, nil)
		if err != nil {
			return false
		}
		// Adding any valid structure never increases cost.
		cols := []int{r.Intn(6), r.Intn(6), r.Intn(6)}
		proj, err := NewProjection(s, "f", cols, []workload.OrderCol{{Col: cols[0]}})
		if err != nil {
			return false
		}
		withProj, err := db.Cost(context.Background(), query, designer.NewDesign(proj))
		if err != nil {
			return false
		}
		return withProj <= base
	}
	_ = rng
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCostUnsupportedQueries(t *testing.T) {
	db := Open(testSchema())
	cases := []*workload.Query{
		{ID: 1},                          // no spec
		q(&workload.Spec{Table: "nope"}), // unknown table
		q(&workload.Spec{Table: "f", SelectCols: []int{6}}), // column of dim
	}
	for i, query := range cases {
		if _, err := db.Cost(context.Background(), query, nil); !errors.Is(err, designer.ErrUnsupported) {
			t.Errorf("case %d: err = %v, want ErrUnsupported", i, err)
		}
	}
}

// TestCheckNamesFirstBadColumn: with several bad columns, the error names
// the smallest referenced one, whichever clause it sits in.
func TestCheckNamesFirstBadColumn(t *testing.T) {
	db := Open(testSchema())
	cases := []struct {
		spec *workload.Spec
		want string
	}{
		{&workload.Spec{Table: "f", SelectCols: []int{99, 1},
			Preds:   []workload.Pred{{Col: 70, Op: workload.Eq, Sel: 0.1}},
			GroupBy: []int{130}},
			"vertsim: invalid column 70: "},
		{&workload.Spec{Table: "f", SelectCols: []int{99},
			Aggs:    []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 6}},
			OrderBy: []workload.OrderCol{{Col: 64}}},
			"vertsim: column dim.k outside anchor \"f\": "},
	}
	for i, tc := range cases {
		_, err := db.Cost(context.Background(), q(tc.spec), nil)
		if !errors.Is(err, designer.ErrUnsupported) || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want prefix %q", i, err, tc.want)
		}
	}
}

func TestGroupByAndOrderCostEffects(t *testing.T) {
	s := testSchema()
	db := Open(s)
	plain := q(&workload.Spec{Table: "f", SelectCols: []int{0}})
	grouped := q(&workload.Spec{Table: "f", SelectCols: []int{2}, GroupBy: []int{2},
		Aggs: []workload.Agg{{Fn: workload.Count, Col: -1}}})
	cPlain, _ := db.Cost(context.Background(), plain, nil)
	cGrouped, _ := db.Cost(context.Background(), grouped, nil)
	if cGrouped <= cPlain-1 { // grouping adds aggregation cost over same scan width? widths differ; just check both positive
		t.Logf("plain=%g grouped=%g", cPlain, cGrouped)
	}

	// Streaming aggregation discount: group-by matching the sort prefix.
	proj, _ := NewProjection(s, "f", []int{2}, []workload.OrderCol{{Col: 2}})
	cStream, _ := db.Cost(context.Background(), grouped, designer.NewDesign(proj))
	if cStream >= cGrouped {
		t.Errorf("sort-streamed group-by %g should beat hash aggregation %g", cStream, cGrouped)
	}

	// Explicit sort cost appears when ORDER BY is unsatisfied.
	sorted := q(&workload.Spec{Table: "f", SelectCols: []int{0},
		OrderBy: []workload.OrderCol{{Col: 0}}})
	cSorted, _ := db.Cost(context.Background(), sorted, nil)
	if cSorted <= cPlain {
		t.Errorf("unsatisfied ORDER BY should cost extra: %g vs %g", cSorted, cPlain)
	}
	// ...and disappears when the projection delivers the order.
	op, _ := NewProjection(s, "f", []int{0}, []workload.OrderCol{{Col: 0}})
	cDelivered, _ := db.Cost(context.Background(), sorted, designer.NewDesign(op))
	if cDelivered >= cSorted {
		t.Errorf("order-satisfying projection should avoid the sort: %g vs %g", cDelivered, cSorted)
	}
}

// executor tests ------------------------------------------------------------

func execSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{{
		Name: "f", Fact: true, Rows: 5_000,
		Columns: []schema.ColumnDef{
			{Name: "a", Type: schema.Int64, Cardinality: 50},
			{Name: "b", Type: schema.Int64, Cardinality: 10},
			{Name: "c", Type: schema.Int64, Cardinality: 500},
			{Name: "d", Type: schema.Int64, Cardinality: 5},
		},
	}})
}

// canonical sorts rows for order-insensitive comparison.
func canonical(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a.Key) && k < len(b.Key); k++ {
			if a.Key[k] != b.Key[k] {
				return a.Key[k] < b.Key[k]
			}
		}
		return len(a.Key) < len(b.Key)
	})
	return out
}

func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) || len(a[i].Aggs) != len(b[i].Aggs) {
			return false
		}
		for j := range a[i].Key {
			if a[i].Key[j] != b[i].Key[j] {
				return false
			}
		}
		for j := range a[i].Aggs {
			if a[i].Aggs[j] != b[i].Aggs[j] {
				return false
			}
		}
	}
	return true
}

func TestExecutorRequiresData(t *testing.T) {
	db := Open(execSchema())
	query := q(&workload.Spec{Table: "f", SelectCols: []int{0}})
	if _, err := db.Execute(query, nil); err == nil {
		t.Fatal("Execute without data should fail")
	}
}

// TestExecutorPathAgreement is the executor's core property: the projection
// path must return exactly the same result as the super-projection scan, for
// random queries and random projections.
func TestExecutorPathAgreement(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 5_000, 7)
	db := OpenWithData(data)

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := &workload.Spec{Table: "f"}
		grouped := r.Intn(2) == 0
		if grouped {
			spec.GroupBy = []int{r.Intn(4)}
			spec.SelectCols = append(spec.SelectCols, spec.GroupBy[0])
			spec.Aggs = []workload.Agg{
				{Fn: workload.Count, Col: -1},
				{Fn: workload.Sum, Col: r.Intn(4)},
				{Fn: workload.Min, Col: r.Intn(4)},
				{Fn: workload.Max, Col: r.Intn(4)},
			}
		} else {
			spec.SelectCols = []int{r.Intn(4), r.Intn(4)}
		}
		predCol := r.Intn(4)
		card := s.Column(predCol).Cardinality
		if r.Intn(2) == 0 {
			v := r.Int63n(card)
			spec.Preds = append(spec.Preds, workload.Pred{
				Col: predCol, Op: workload.Eq, Lo: v, Hi: v, Sel: 1 / float64(card)})
		} else {
			lo := r.Int63n(card)
			hi := lo + r.Int63n(card-lo)
			spec.Preds = append(spec.Preds, workload.Pred{
				Col: predCol, Op: workload.Between, Lo: lo, Hi: hi,
				Sel: float64(hi-lo+1) / float64(card)})
		}
		query := q(spec)

		// Projection over all referenced columns, sorted by the pred column.
		proj, err := NewProjection(s, "f", spec.ReferencedCols(),
			[]workload.OrderCol{{Col: predCol}})
		if err != nil {
			return false
		}
		scan, err := db.Execute(query, nil)
		if err != nil {
			return false
		}
		fast, err := db.Execute(query, designer.NewDesign(proj))
		if err != nil {
			return false
		}
		if fast.Projection == "" {
			return false // the optimizer should have chosen the projection
		}
		if fast.ScannedRows > scan.ScannedRows {
			return false // narrowed scan must not read more
		}
		return rowsEqual(canonical(scan.Rows), canonical(fast.Rows))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestExecutorOrderByAndLimit(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 5_000, 7)
	db := OpenWithData(data)

	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{2},
		Preds:      []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 3, Hi: 3, Sel: 0.1}},
		OrderBy:    []workload.OrderCol{{Col: 2, Desc: true}},
		Limit:      10,
	})
	res, err := db.Execute(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 10 {
		t.Fatalf("limit not applied: %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Key[0] < res.Rows[i].Key[0] {
			t.Fatal("DESC order violated")
		}
	}
}

func TestExecutorAggregates(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 5_000, 7)
	db := OpenWithData(data)

	// Global aggregate (no group by): COUNT(*) equals matched rows.
	query := q(&workload.Spec{
		Table: "f",
		Aggs:  []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Avg, Col: 2}},
		Preds: []workload.Pred{{Col: 3, Op: workload.Eq, Lo: 0, Hi: 0, Sel: 0.2}},
	})
	res, err := db.Execute(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate returned %d rows", len(res.Rows))
	}
	count := res.Rows[0].Aggs[0]
	// Recompute by hand.
	var want float64
	var sum float64
	col3 := data.Column(3)
	col2 := data.Column(2)
	for i := 0; i < data.Rows("f"); i++ {
		if col3[i] == 0 {
			want++
			sum += float64(col2[i])
		}
	}
	if count != want {
		t.Fatalf("COUNT = %g, want %g", count, want)
	}
	if want > 0 {
		avg := res.Rows[0].Aggs[1]
		if avg != sum/want {
			t.Fatalf("AVG = %g, want %g", avg, sum/want)
		}
	}
}

func TestExecutorEstimatorRankAgreement(t *testing.T) {
	// The estimator's path choice should correspond to fewer scanned rows in
	// the executor: build two projections, one sort-matched, one not, and
	// check the chosen path is the cheaper-to-execute one.
	s := execSchema()
	data := datagen.Generate(s, 5_000, 7)
	db := OpenWithData(data)

	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{0, 2},
		Preds:      []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 42, Hi: 42, Sel: 1.0 / 500}},
	})
	good, _ := NewProjection(s, "f", []int{0, 2}, []workload.OrderCol{{Col: 2}})
	bad, _ := NewProjection(s, "f", []int{0, 2}, []workload.OrderCol{{Col: 0}})
	design := designer.NewDesign(bad, good)

	res, err := db.Execute(query, design)
	if err != nil {
		t.Fatal(err)
	}
	if res.Projection != good.Key() {
		t.Fatalf("optimizer chose %q, want sort-matched %q", res.Projection, good.Key())
	}
	scan, _ := db.Execute(query, nil)
	if res.ScannedRows >= scan.ScannedRows {
		t.Fatalf("chosen path scanned %d rows, full scan %d", res.ScannedRows, scan.ScannedRows)
	}
}

// designer tests ------------------------------------------------------------

func TestDesignerRespectsbudget(t *testing.T) {
	s := testSchema()
	db := Open(s)
	var queries []*workload.Query
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		spec := &workload.Spec{Table: "f",
			SelectCols: []int{rng.Intn(6), rng.Intn(6)},
			Preds: []workload.Pred{{Col: rng.Intn(6), Op: workload.Eq,
				Lo: 1, Hi: 1, Sel: 0.01}}}
		queries = append(queries, q(spec))
	}
	w := workload.New(queries...)

	budget := int64(20) << 20
	d := NewDesigner(db, budget)
	design, err := d.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if design.SizeBytes() > budget {
		t.Fatalf("design size %d exceeds budget %d", design.SizeBytes(), budget)
	}
	// The design must actually help the workload.
	before, _ := designer.WorkloadCost(context.Background(), db, w, nil)
	after, _ := designer.WorkloadCost(context.Background(), db, w, design)
	if after >= before {
		t.Fatalf("design did not improve workload: %g -> %g", before, after)
	}
}

func TestDesignerZeroBudget(t *testing.T) {
	s := testSchema()
	db := Open(s)
	w := workload.New(q(&workload.Spec{Table: "f", SelectCols: []int{0}}))
	d := NewDesigner(db, 0)
	design, err := d.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if design.Len() != 0 {
		t.Fatalf("zero budget produced %d structures", design.Len())
	}
}

func TestDesignerSkipsUnsupportedQueries(t *testing.T) {
	s := testSchema()
	db := Open(s)
	ok := q(&workload.Spec{Table: "f", SelectCols: []int{0},
		Preds: []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.01}}})
	bad := q(&workload.Spec{Table: "nope", SelectCols: []int{0}})
	d := NewDesigner(db, 1<<30)
	// Candidates skip the unsupported query and the pair table drops it, so
	// designing {ok, bad} is designing {ok}.
	cands := d.Candidates(workload.New(ok, bad))
	if len(cands) == 0 {
		t.Fatal("no candidates for the supported query")
	}
	for _, c := range cands {
		if c.(*Projection).Anchor != "f" {
			t.Fatal("candidate for unsupported table")
		}
	}
	got, err := d.Design(context.Background(), workload.New(ok, bad))
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Design(context.Background(), workload.New(ok))
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("design with the unsupported query %v, without %v", got, want)
	}
}

func TestCandidatesCoverPerturbedFamilies(t *testing.T) {
	// A base template plus near-duplicate variants must produce a union
	// candidate that covers all of them (the hedging mechanism CliffGuard
	// relies on).
	s := testSchema()
	db := Open(s)
	// A one-column flip on a >=5-column template keeps >=83% containment,
	// which is what lets variants agglomerate (families of very small
	// templates intentionally do not cluster).
	base := q(&workload.Spec{Table: "f", SelectCols: []int{0, 1, 3, 5},
		Preds: []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.1}}})
	v1 := q(&workload.Spec{Table: "f", SelectCols: []int{0, 1, 3, 5, 4},
		Preds: []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.1}}})
	v2 := q(&workload.Spec{Table: "f", SelectCols: []int{0, 1, 3, 4, 5},
		Preds: []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.1},
			{Col: 0, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.2}}})
	w := workload.New(base, v1, v2)

	d := NewDesigner(db, 1<<40)
	cands := d.Candidates(w)
	union := workload.NewColSet(0, 1, 2, 3, 4, 5)
	found := false
	for _, c := range cands {
		if c.(*Projection).Cols.Contains(union) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no union candidate covering the whole family")
	}
}

func TestCostConcurrentAccess(t *testing.T) {
	// The cost model is shared across CliffGuard's evaluations; concurrent
	// use must be safe.
	s := testSchema()
	db := Open(s)
	proj, _ := NewProjection(s, "f", []int{0, 1, 3}, []workload.OrderCol{{Col: 1}})
	design := designer.NewDesign(proj)
	queries := make([]*workload.Query, 16)
	for i := range queries {
		queries[i] = q(&workload.Spec{Table: "f", SelectCols: []int{i % 6},
			Preds: []workload.Pred{{Col: (i + 1) % 6, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.01}}})
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Offset per goroutine so different goroutines race on the
				// same (query, path) pairs from different starting points.
				if _, err := db.Cost(context.Background(), queries[(i+g)%len(queries)], design); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDeploy(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 5_000, 7)
	db := OpenWithData(data)
	p1, _ := NewProjection(s, "f", []int{0, 1}, []workload.OrderCol{{Col: 0}})
	p2, _ := NewProjection(s, "f", []int{2, 3}, []workload.OrderCol{{Col: 2}})
	d := designer.NewDesign(p1, p2)

	ms, err := db.Deploy(d)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Fatal("deployment cost should be positive")
	}
	// After deployment the permutations exist; execution uses them directly.
	query := q(&workload.Spec{Table: "f", SelectCols: []int{0},
		Preds: []workload.Pred{{Col: 0, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.02}}})
	res, err := db.Execute(query, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Projection == "" {
		t.Fatal("deployed projection not chosen")
	}
	// Nil design deploys as a no-op.
	if ms, err := db.Deploy(nil); err != nil || ms != 0 {
		t.Fatalf("nil deploy = %g, %v", ms, err)
	}

	// At modeled warehouse scale, deployment dwarfs a single sort-matched
	// query (the Appendix A.4 relationship). Cost-model-only DB suffices.
	big := testSchema()
	bdb := Open(big)
	bp, _ := NewProjection(big, "f", []int{0, 1, 3}, []workload.OrderCol{{Col: 1}})
	bq := q(&workload.Spec{Table: "f", SelectCols: []int{0, 3},
		Preds: []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 5, Hi: 5, Sel: 0.01}}})
	bms, err := bdb.Deploy(designer.NewDesign(bp))
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := bdb.Cost(context.Background(), bq, designer.NewDesign(bp))
	if bms <= 10*bc {
		t.Fatalf("deployment %g should dwarf a fast query %g", bms, bc)
	}
}

func TestExplain(t *testing.T) {
	s := testSchema()
	db := Open(s)
	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{2},
		GroupBy:    []int{2},
		Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}},
		Preds:      []workload.Pred{{Col: 1, Op: workload.Eq, Lo: 5, Hi: 5, Sel: 0.01}},
		OrderBy:    []workload.OrderCol{{Col: 2}},
		Limit:      10,
	})
	plan, err := db.Explain(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SCAN super-projection", "FILTER 1", "HASH GROUP BY", "SORT", "LIMIT 10"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	proj, _ := NewProjection(s, "f", []int{1, 2}, []workload.OrderCol{{Col: 1}, {Col: 2}})
	plan, err = db.Explain(query, designer.NewDesign(proj))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "sort-prefix pruning") {
		t.Errorf("projection plan missing pruning:\n%s", plan)
	}
	if _, err := db.Explain(&workload.Query{}, nil); err == nil {
		t.Error("unsupported query should fail")
	}
}
