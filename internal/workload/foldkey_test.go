package workload_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/workload"
)

// referenceFoldKey is FoldKey as it was built before AppendFoldKey: a
// strings.Builder and one temporary string per number. It is the oracle
// TestFoldKeyMatchesReference diffs the append form against.
func referenceFoldKey(q *workload.Query) string {
	if q.Spec == nil {
		return "nospec|" + q.SeparateKey()
	}
	s := q.Spec
	var b strings.Builder
	b.WriteString(s.Table)
	b.WriteString("|s")
	for _, c := range s.SelectCols {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	b.WriteString("|a")
	for _, a := range s.Aggs {
		b.WriteString(strconv.Itoa(int(a.Fn)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(a.Col))
		b.WriteByte(',')
	}
	b.WriteString("|p")
	for _, p := range s.Preds {
		b.WriteString(strconv.Itoa(p.Col))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(p.Op)))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(p.Lo, 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(p.Hi, 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(math.Float64bits(p.Sel), 16))
		b.WriteByte(',')
	}
	b.WriteString("|g")
	for _, c := range s.GroupBy {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	b.WriteString("|o")
	for _, o := range s.OrderBy {
		b.WriteString(strconv.Itoa(o.Col))
		if o.Desc {
			b.WriteByte('d')
		}
		b.WriteByte(',')
	}
	b.WriteString("|l")
	b.WriteString(strconv.Itoa(s.Limit))
	return b.String()
}

// TestFoldKeyMatchesReference diffs FoldKey and AppendFoldKey (into a dirty
// reused buffer) against the reference on R1's first month, one sampler
// mutant of each of its queries, and hand-built edge cases: no Spec,
// negative literals, descending order keys and a limit.
func TestFoldKeyMatchesReference(t *testing.T) {
	s, w, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	queries := designertest.Mutants(s, w, 1)
	var sel workload.ColSet
	sel.Add(3)
	queries = append(queries,
		&workload.Query{Select: sel},
		&workload.Query{Spec: &workload.Spec{
			Table:      "t",
			SelectCols: []int{0, 12},
			Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 7}},
			Preds: []workload.Pred{
				{Col: 2, Op: workload.Between, Lo: math.MinInt64, Hi: -1, Sel: 0.125},
				{Col: 5, Op: workload.Eq, Lo: 42, Hi: 42, Sel: math.SmallestNonzeroFloat64},
			},
			GroupBy: []int{9},
			OrderBy: []workload.OrderCol{{Col: 9, Desc: true}, {Col: 1}},
			Limit:   100,
		}},
		&workload.Query{Spec: &workload.Spec{}},
	)
	buf := []byte("stale bytes from an earlier key")
	for i, q := range queries {
		want := referenceFoldKey(q)
		if got := q.FoldKey(); got != want {
			t.Fatalf("query %d: FoldKey %q, want %q", i, got, want)
		}
		buf = q.AppendFoldKey(buf[:0])
		if string(buf) != want {
			t.Fatalf("query %d: AppendFoldKey %q, want %q", i, buf, want)
		}
	}
	if len(queries) < 3000 {
		t.Fatalf("only %d queries checked", len(queries))
	}
}
