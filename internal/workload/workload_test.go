package workload

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func specOn(table string, sel, where, group, order []int) *Spec {
	spec := &Spec{Table: table, SelectCols: sel}
	for _, c := range where {
		spec.Preds = append(spec.Preds, Pred{Col: c, Op: Eq, Lo: 1, Hi: 1, Sel: 0.1})
	}
	spec.GroupBy = group
	for _, c := range order {
		spec.OrderBy = append(spec.OrderBy, OrderCol{Col: c})
	}
	return spec
}

func TestFromSpecClauseSets(t *testing.T) {
	spec := specOn("t", []int{1, 2}, []int{3}, []int{4}, []int{5})
	spec.Aggs = []Agg{{Fn: Sum, Col: 6}, {Fn: Count, Col: -1}}
	q := FromSpec(7, time.Unix(100, 0), spec)

	if q.ID != 7 || !q.Timestamp.Equal(time.Unix(100, 0)) {
		t.Fatal("ID/timestamp not stamped")
	}
	// Aggregate columns count as SELECT columns; COUNT(*) adds nothing.
	if got := q.Select.IDs(); len(got) != 3 || !q.Select.Has(6) {
		t.Errorf("Select = %v", got)
	}
	if !q.Where.Has(3) || !q.GroupBy.Has(4) || !q.OrderBy.Has(5) {
		t.Error("clause sets wrong")
	}
	want := NewColSet(1, 2, 3, 4, 5, 6)
	if !q.Columns().Equal(want) {
		t.Errorf("Columns = %v, want %v", q.Columns(), want)
	}
}

func TestClauseMask(t *testing.T) {
	spec := specOn("t", []int{1}, []int{2}, []int{3}, []int{4})
	q := FromSpec(1, time.Time{}, spec)

	cases := []struct {
		mask ClauseMask
		want ColSet
		name string
	}{
		{MaskSelect, NewColSet(1), "S"},
		{MaskWhere, NewColSet(2), "W"},
		{MaskGroupBy, NewColSet(3), "G"},
		{MaskOrderBy, NewColSet(4), "O"},
		{MaskSWGO, NewColSet(1, 2, 3, 4), "SWGO"},
		{MaskSelect | MaskWhere, NewColSet(1, 2), "SW"},
	}
	for _, tc := range cases {
		if got := q.MaskedColumns(tc.mask); !got.Equal(tc.want) {
			t.Errorf("MaskedColumns(%s) = %v, want %v", tc.mask, got, tc.want)
		}
		if tc.mask.String() != tc.name {
			t.Errorf("mask String = %q, want %q", tc.mask.String(), tc.name)
		}
	}
	if ClauseMask(0).String() != "(none)" {
		t.Error("zero mask should render (none)")
	}
}

func TestTemplateKeys(t *testing.T) {
	// Same columns in different clauses: same SWGO template, different
	// separate keys.
	q1 := FromSpec(1, time.Time{}, specOn("t", []int{1}, []int{2}, nil, nil))
	q2 := FromSpec(2, time.Time{}, specOn("t", []int{2}, []int{1}, nil, nil))
	if q1.TemplateKey(MaskSWGO) != q2.TemplateKey(MaskSWGO) {
		t.Error("SWGO templates should match")
	}
	if q1.SeparateKey() == q2.SeparateKey() {
		t.Error("separate keys should differ")
	}
}

func TestWorkloadBasics(t *testing.T) {
	q1 := FromSpec(1, time.Time{}, specOn("t", []int{1}, nil, nil, nil))
	q2 := FromSpec(2, time.Time{}, specOn("t", []int{2}, nil, nil, nil))
	w := New(q1, q2)
	if w.Len() != 2 || w.TotalWeight() != 2 {
		t.Fatalf("Len=%d TotalWeight=%f", w.Len(), w.TotalWeight())
	}
	w.Add(q1, 3)
	if w.TotalWeight() != 5 {
		t.Fatal("weighted add failed")
	}
	w.Add(q1, 0)  // ignored
	w.Add(q1, -1) // ignored
	if w.Len() != 3 {
		t.Fatal("non-positive weights should be ignored")
	}

	v := w.Vector(MaskSWGO)
	if len(v) != 2 {
		t.Fatalf("vector has %d templates, want 2", len(v))
	}
	if got := v[q1.TemplateKey(MaskSWGO)]; math.Abs(got-4.0/5) > 1e-12 {
		t.Errorf("q1 frequency = %f, want 0.8", got)
	}
	var sum float64
	for _, f := range v {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("frequencies sum to %f", sum)
	}
}

func TestWorkloadCloneUnionScale(t *testing.T) {
	q := FromSpec(1, time.Time{}, specOn("t", []int{1}, nil, nil, nil))
	w := New(q)
	c := w.Clone()
	c.Add(q, 5)
	if w.Len() != 1 {
		t.Fatal("Clone is not independent")
	}
	u := w.Union(c)
	if u.TotalWeight() != 7 {
		t.Fatalf("Union weight = %f", u.TotalWeight())
	}
	s := w.Scale(3)
	if s.TotalWeight() != 3 || w.TotalWeight() != 1 {
		t.Fatal("Scale wrong or mutated receiver")
	}
}

func TestSharedTemplateFraction(t *testing.T) {
	qa := FromSpec(1, time.Time{}, specOn("t", []int{1}, nil, nil, nil))
	qb := FromSpec(2, time.Time{}, specOn("t", []int{2}, nil, nil, nil))
	qa2 := FromSpec(3, time.Time{}, specOn("t", []int{1}, nil, nil, nil)) // same template as qa

	w1 := New(qa, qb) // templates {1}, {2}
	w2 := New(qa2)    // template {1}
	if got := w1.SharedTemplateFraction(w2, MaskSWGO); got != 0.5 {
		t.Errorf("shared fraction = %f, want 0.5", got)
	}
	if got := w2.SharedTemplateFraction(w1, MaskSWGO); got != 1.0 {
		t.Errorf("reverse shared fraction = %f, want 1", got)
	}
	empty := &Workload{}
	if got := empty.SharedTemplateFraction(w1, MaskSWGO); got != 0 {
		t.Errorf("empty shared fraction = %f", got)
	}
}

func TestWindows(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	day := 24 * time.Hour
	var queries []*Query
	// Days 0, 1, 8, 29 -> windows of 7 days: [0], [1], [8], gap, [29].
	for _, d := range []int{0, 1, 8, 29} {
		q := FromSpec(int64(d), base.Add(time.Duration(d)*day), specOn("t", []int{1}, nil, nil, nil))
		queries = append(queries, q)
	}
	windows := Windows(queries, 7*day)
	if len(windows) != 5 {
		t.Fatalf("got %d windows, want 5", len(windows))
	}
	wantCounts := []int{2, 1, 0, 0, 1}
	for i, want := range wantCounts {
		if windows[i].Len() != want {
			t.Errorf("window %d has %d queries, want %d", i, windows[i].Len(), want)
		}
	}
	// Empty and degenerate inputs.
	if Windows(nil, 7*day) != nil {
		t.Error("Windows(nil) should be nil")
	}
	if Windows(queries, 0) != nil {
		t.Error("Windows(d=0) should be nil")
	}
}

func TestTimeSpan(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	q1 := FromSpec(1, base.Add(time.Hour), specOn("t", []int{1}, nil, nil, nil))
	q2 := FromSpec(2, base, specOn("t", []int{1}, nil, nil, nil))
	w := New(q1, q2)
	lo, hi := w.TimeSpan()
	if !lo.Equal(base) || !hi.Equal(base.Add(time.Hour)) {
		t.Fatalf("TimeSpan = %v..%v", lo, hi)
	}
	e := &Workload{}
	lo, hi = e.TimeSpan()
	if !lo.IsZero() || !hi.IsZero() {
		t.Fatal("empty TimeSpan should be zero")
	}
}

func TestNextIDUnique(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		id := NextID()
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestSortPredsBySelectivity(t *testing.T) {
	spec := &Spec{Table: "t", Preds: []Pred{
		{Col: 1, Sel: 0.5}, {Col: 2, Sel: 0.01}, {Col: 3, Sel: 0.1},
	}}
	got := spec.SortPredsBySelectivity()
	if got[0].Col != 2 || got[1].Col != 3 || got[2].Col != 1 {
		t.Errorf("sorted preds = %v", got)
	}
	// Original order untouched.
	if spec.Preds[0].Col != 1 {
		t.Error("SortPredsBySelectivity mutated the spec")
	}
}

func TestReferencedCols(t *testing.T) {
	spec := specOn("t", []int{5, 1}, []int{9}, []int{3}, []int{7})
	spec.Aggs = []Agg{{Fn: Sum, Col: 11}, {Fn: Count, Col: -1}}
	got := spec.ReferencedCols()
	want := []int{1, 3, 5, 7, 9, 11}
	if len(got) != len(want) {
		t.Fatalf("ReferencedCols = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReferencedCols = %v, want %v", got, want)
		}
	}
}

// TestEachRefMatchesReferencedCols pins the engines' what-if contract: for a
// query built by FromSpec, walking the clause-set union visits exactly
// Spec.ReferencedCols(), in the same ascending order, and RefsIn answers
// coverage exactly as a set built from that slice would.
func TestEachRefMatchesReferencedCols(t *testing.T) {
	withAggs := func(spec *Spec, aggs ...Agg) *Spec { spec.Aggs = aggs; return spec }
	cases := []struct {
		name string
		spec *Spec
	}{
		{"empty", &Spec{Table: "t"}},
		{"count star only", withAggs(&Spec{Table: "t"}, Agg{Fn: Count, Col: -1})},
		{"aggregates", withAggs(specOn("t", []int{2}, []int{5}, []int{2}, nil),
			Agg{Fn: Count, Col: -1}, Agg{Fn: Sum, Col: 9}, Agg{Fn: Avg, Col: 2})},
		{"duplicates across clauses", specOn("t", []int{3, 3, 1}, []int{1, 3, 3}, []int{1}, []int{3, 1})},
		{"ids past one word", withAggs(specOn("t", []int{64, 0}, []int{127, 63}, []int{130}, []int{200, 64}),
			Agg{Fn: Max, Col: 191}, Agg{Fn: Count, Col: -1})},
		{"only the high word", specOn("t", nil, []int{300}, nil, []int{257})},
		{"one clause per word", specOn("t", []int{5}, []int{70}, []int{140}, []int{210})},
	}
	probes := []ColSet{
		{},
		NewColSet(0, 1, 2, 3, 5, 9),
		NewColSet(0, 63, 64, 127, 130, 191, 200),
		NewColSet(0, 63, 64, 127, 130, 200),
		NewColSet(257, 300),
		NewColSet(5, 70, 140, 210, 211),
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := FromSpec(1, time.Time{}, tc.spec)
			want := tc.spec.ReferencedCols()
			var got []int
			if !q.EachRef(func(c int) bool { got = append(got, c); return true }) {
				t.Fatal("full walk reported an early stop")
			}
			if len(got) != len(want) {
				t.Fatalf("EachRef = %v, ReferencedCols = %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("EachRef = %v, ReferencedCols = %v", got, want)
				}
			}
			// An early stop visits exactly the prefix up to the stopping column.
			for stop := range want {
				var seen []int
				if q.EachRef(func(c int) bool { seen = append(seen, c); return c != want[stop] }) {
					t.Fatalf("walk stopping at %d ran to the end", want[stop])
				}
				if len(seen) != stop+1 {
					t.Fatalf("walk stopping at %d visited %v", want[stop], seen)
				}
			}
			wantSet := NewColSet(want...)
			for _, cols := range append(probes, wantSet) {
				if got, want := q.RefsIn(cols), cols.Contains(wantSet); got != want {
					t.Errorf("RefsIn(%v) = %v, Contains = %v", cols, got, want)
				}
			}
		})
	}
}

func TestEnumStrings(t *testing.T) {
	ops := map[CmpOp]string{Eq: "=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Between: "BETWEEN"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	fns := map[AggFn]string{Count: "COUNT", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX"}
	for fn, want := range fns {
		if fn.String() != want {
			t.Errorf("AggFn(%d).String() = %q, want %q", int(fn), fn.String(), want)
		}
	}
	// Unknown values render diagnostically rather than panicking.
	if CmpOp(99).String() == "" || AggFn(99).String() == "" {
		t.Error("unknown enum should still render")
	}
}

func TestQueryString(t *testing.T) {
	q := FromSpec(7, time.Time{}, specOn("orders", []int{1}, []int{2}, nil, nil))
	s := q.String()
	if s == "" || !strings.Contains(s, "orders") || !strings.Contains(s, "Q7") {
		t.Errorf("Query.String() = %q", s)
	}
}

func TestComputeStats(t *testing.T) {
	q1 := FromSpec(1, time.Time{}, specOn("t", []int{1}, []int{2}, nil, nil))
	q2spec := specOn("t", []int{3}, nil, []int{4}, []int{3})
	q2spec.Aggs = []Agg{{Fn: Count, Col: -1}}
	q2 := FromSpec(2, time.Time{}, q2spec)
	w := &Workload{}
	w.Add(q1, 3)
	w.Add(q2, 1)

	st := ComputeStats(w)
	if st.Queries != 2 || st.TotalWeight != 4 || st.Templates != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.TopTemplates) != 2 || st.TopTemplates[0].Share != 0.75 {
		t.Fatalf("top templates = %+v", st.TopTemplates)
	}
	if st.ColumnUse[2].Where != 3 || st.ColumnUse[4].GroupBy != 1 || st.ColumnUse[3].OrderBy != 1 {
		t.Fatalf("column use = %+v", st.ColumnUse)
	}
	if st.Aggregated != 0.25 || st.Filtered != 0.75 || st.Ordered != 0.25 {
		t.Fatalf("shape shares = %+v", st)
	}
	if !strings.Contains(st.String(), "2 templates") {
		t.Errorf("String() = %q", st.String())
	}
	// Empty workload is well-defined.
	if e := ComputeStats(&Workload{}); e.Queries != 0 || e.Templates != 0 {
		t.Error("empty stats")
	}
}

// TestAppendTemplateKeyMatchesMaskedKey: for all 16 clause masks,
// AppendTemplateKey(nil, m) equals MaskedColumns(m).Key() and appends
// after existing bytes, on clause sets of different word lengths, with
// column IDs past 64 and with trailing zero words.
func TestAppendTemplateKeyMatchesMaskedKey(t *testing.T) {
	trailing := NewColSet(2)
	trailing.grow(3) // {2} stored in four words
	emptyLong := ColSet{}
	emptyLong.grow(2) // the empty set stored in three words
	queries := []*Query{
		{},
		{Select: NewColSet(1, 5), Where: NewColSet(70), GroupBy: NewColSet(5), OrderBy: NewColSet(130)},
		{Select: NewColSet(64), Where: trailing, OrderBy: NewColSet(0, 63)},
		{Select: emptyLong, Where: NewColSet(3), GroupBy: trailing},
		{Select: NewColSet(200), GroupBy: emptyLong},
	}
	for set, want := range map[*ColSet]string{
		&queries[1].Select: "22", &trailing: "4", &emptyLong: "", &queries[2].Select: "0,1",
	} {
		if got := set.Key(); got != want {
			t.Errorf("%v.Key() = %q, want %q", *set, got, want)
		}
	}
	if got, want := queries[1].TemplateKey(MaskSWGO), "22,40,4"; got != want {
		t.Errorf("TemplateKey(SWGO) = %q, want %q", got, want)
	}
	for qi, q := range queries {
		for m := ClauseMask(0); m < 16; m++ {
			want := q.MaskedColumns(m).Key()
			if got := string(q.AppendTemplateKey(nil, m)); got != want {
				t.Errorf("query %d mask %v: AppendTemplateKey = %q, MaskedColumns.Key = %q", qi, m, got, want)
			}
			if got := string(q.AppendTemplateKey([]byte("x|"), m)); got != "x|"+want {
				t.Errorf("query %d mask %v: appended %q, want %q", qi, m, got, "x|"+want)
			}
			if got := q.TemplateKey(m); got != want {
				t.Errorf("query %d mask %v: TemplateKey = %q, want %q", qi, m, got, want)
			}
		}
	}
	q := queries[1]
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = q.AppendTemplateKey(buf[:0], MaskSWGO) }); n != 0 {
		t.Fatalf("AppendTemplateKey into a reused buffer allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = q.TemplateKey(MaskSWGO) }); n > 1 {
		t.Fatalf("TemplateKey allocates %.0f times, want only its string", n)
	}
}

// TestAppendHexMatchesStrconv: the key's hex words are strconv's base-16
// rendering, so keys (and the order of frozen vectors' keys) are unchanged.
func TestAppendHexMatchesStrconv(t *testing.T) {
	vs := []uint64{0, 1, 9, 10, 15, 16, 255, 256, 1 << 63, math.MaxUint64, 0x0123456789abcdef}
	for i := 0; i < 64; i++ {
		vs = append(vs, 1<<i, 1<<i-1, 0x9e3779b97f4a7c15>>i)
	}
	for _, v := range vs {
		if got, want := string(appendHex([]byte("x"), v)), "x"+strconv.FormatUint(v, 16); got != want {
			t.Errorf("appendHex(%#x) = %q, want %q", v, got, want)
		}
	}
}

// BenchmarkAppendTemplateKey keys queries of one to three words into a
// reused buffer: the work behind every frozen-vector build, template
// compression and sampler filter.
func BenchmarkAppendTemplateKey(b *testing.B) {
	queries := []*Query{
		FromSpec(0, time.Time{}, specOn("t", []int{1, 5, 9}, []int{3}, nil, nil)),
		FromSpec(0, time.Time{}, specOn("t", []int{70, 75}, []int{66, 100}, []int{70}, nil)),
		FromSpec(0, time.Time{}, specOn("t", []int{130, 150}, []int{140}, []int{131}, []int{150})),
	}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = queries[i%len(queries)].AppendTemplateKey(buf[:0], MaskSWGO)
	}
}
