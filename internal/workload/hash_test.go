package workload_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/ingest"
	"cliffguard/internal/sqlparse"
	"cliffguard/internal/workload"
)

// builtQueries returns queries from every construction path: the R1
// generator (wlgen), one sampler mutant of each (the mutator), and R1's
// queries rendered to SQL and read back both by the parser and by ingest.
func builtQueries(t *testing.T) map[string][]*workload.Query {
	t.Helper()
	s, w, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	all := designertest.Mutants(s, w, 1)
	gen, mut := all[:w.Len()], all[w.Len():]

	p := sqlparse.NewParser(s)
	var parsed []*workload.Query
	var log strings.Builder
	for _, q := range gen {
		sql, err := sqlparse.Render(s, q.Spec)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := p.Parse(sql)
		if err != nil {
			t.Fatalf("parsing %q: %v", sql, err)
		}
		parsed = append(parsed, pq)
		log.WriteString(sql)
		log.WriteString(";\n")
	}
	iw, _, err := ingest.Reader(s, strings.NewReader(log.String()), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ingested []*workload.Query
	for _, it := range iw.Items {
		ingested = append(ingested, it.Q)
	}
	return map[string][]*workload.Query{"wlgen": gen, "mutator": mut, "parser": parsed, "ingest": ingested}
}

// TestStoredHashMatchesRecomputation: every construction path stores the
// content hash, and the stored value is the one the fields give.
func TestStoredHashMatchesRecomputation(t *testing.T) {
	for src, qs := range builtQueries(t) {
		if len(qs) == 0 {
			t.Fatalf("%s: no queries", src)
		}
		for i, q := range qs {
			stored, want := workload.StoredHash(q), workload.RecomputeHash(q)
			if stored == 0 || stored != want || workload.ContentHash(q) != want {
				t.Fatalf("%s query %d: stored hash %x, ContentHash %x, recomputed %x", src, i, stored, workload.ContentHash(q), want)
			}
		}
	}
}

// TestFoldKeyAgreesWithHash: queries with equal FoldKeys hash alike, and
// across several thousand distinct FoldKeys no two hashes collide.
func TestFoldKeyAgreesWithHash(t *testing.T) {
	byKey := map[string]uint64{}
	byHash := map[uint64]string{}
	for src, qs := range builtQueries(t) {
		for i, q := range qs {
			k, h := q.FoldKey(), workload.ContentHash(q)
			if prev, ok := byKey[k]; ok && prev != h {
				t.Fatalf("%s query %d: FoldKey %q hashes to %x and %x", src, i, k, prev, h)
			}
			if prev, ok := byHash[h]; ok && prev != k {
				t.Fatalf("%s query %d: hash %x shared by FoldKeys %q and %q", src, i, h, prev, k)
			}
			byKey[k], byHash[h] = h, k
		}
	}
	if len(byKey) < 1000 {
		t.Fatalf("only %d distinct FoldKeys checked", len(byKey))
	}
}

func hashSpec() *workload.Spec {
	return &workload.Spec{
		Table:      "lineorder",
		SelectCols: []int{1, 2},
		Aggs:       []workload.Agg{{Fn: workload.Sum, Col: 3}},
		Preds:      []workload.Pred{{Col: 4, Op: workload.Between, Lo: 10, Hi: 20, Sel: 0.25}},
		GroupBy:    []int{1},
		OrderBy:    []workload.OrderCol{{Col: 2}},
		Limit:      5,
	}
}

// TestHashCoversEveryField: changing any one Spec field or clause set
// changes the hash; ID, Timestamp and SQL do not.
func TestHashCoversEveryField(t *testing.T) {
	base := workload.ContentHash(workload.FromSpec(1, time.Time{}, hashSpec()))
	for name, edit := range map[string]func(*workload.Spec){
		"table":          func(s *workload.Spec) { s.Table = "lineorders" },
		"select_cols":    func(s *workload.Spec) { s.SelectCols = []int{1} },
		"select_order":   func(s *workload.Spec) { s.SelectCols = []int{2, 1} },
		"agg_fn":         func(s *workload.Spec) { s.Aggs[0].Fn = workload.Avg },
		"agg_col":        func(s *workload.Spec) { s.Aggs[0].Col = 5 },
		"agg_count_star": func(s *workload.Spec) { s.Aggs = append(s.Aggs, workload.Agg{Fn: workload.Count, Col: -1}) },
		"pred_col":       func(s *workload.Spec) { s.Preds[0].Col = 6 },
		"pred_op":        func(s *workload.Spec) { s.Preds[0].Op = workload.Ge },
		"pred_lo":        func(s *workload.Spec) { s.Preds[0].Lo = 11 },
		"pred_hi":        func(s *workload.Spec) { s.Preds[0].Hi = math.MinInt64 },
		"pred_sel":       func(s *workload.Spec) { s.Preds[0].Sel = math.Nextafter(0.25, 1) },
		"group_by":       func(s *workload.Spec) { s.GroupBy = []int{2} },
		"order_col":      func(s *workload.Spec) { s.OrderBy[0].Col = 1 },
		"order_desc":     func(s *workload.Spec) { s.OrderBy[0].Desc = true },
		"limit":          func(s *workload.Spec) { s.Limit = 0 },
		// The same column moved across a section boundary.
		"select_to_group": func(s *workload.Spec) { s.SelectCols = []int{1}; s.GroupBy = []int{1, 2} },
	} {
		s := hashSpec()
		edit(s)
		if h := workload.ContentHash(workload.FromSpec(1, time.Time{}, s)); h == base {
			t.Errorf("%s: hash unchanged", name)
		}
	}

	// A literal-built query carries no stored hash: each clause-set edit is
	// hashed afresh.
	q := workload.FromSpec(1, time.Time{}, hashSpec())
	for _, name := range []string{"select", "where", "group_by", "order_by"} {
		lit := workload.Query{Select: q.Select.Clone(), Where: q.Where.Clone(), GroupBy: q.GroupBy.Clone(), OrderBy: q.OrderBy.Clone(), Spec: q.Spec}
		if h := workload.ContentHash(&lit); h != base {
			t.Fatalf("%s: literal copy hashes %x, want %x", name, h, base)
		}
		clause := map[string]*workload.ColSet{"select": &lit.Select, "where": &lit.Where, "group_by": &lit.GroupBy, "order_by": &lit.OrderBy}[name]
		clause.Add(60)
		if workload.ContentHash(&lit) == base {
			t.Errorf("clause set %s: hash unchanged", name)
		}
	}

	same := workload.FromSpec(99, time.Unix(1e9, 0), hashSpec())
	same.SQL = "SELECT something else"
	if workload.ContentHash(same) != base {
		t.Error("ID, Timestamp or SQL changed the hash")
	}
}

// TestHashTrimsTrailingZeroWords: a column set whose bitset ends in zero
// words hashes like the same set without them.
func TestHashTrimsTrailingZeroWords(t *testing.T) {
	trimmed := workload.NewColSet(3, 70)
	padded := workload.NewColSet(3, 70, 300)
	padded.Remove(300) // five words, the last three zero
	if !padded.Equal(trimmed) {
		t.Fatal("test premise: sets differ")
	}
	a := &workload.Query{Select: trimmed, Where: workload.NewColSet(3)}
	b := &workload.Query{Select: padded, Where: workload.NewColSet(3)}
	if workload.ContentHash(a) != workload.ContentHash(b) {
		t.Fatalf("trailing zero words change the hash: %x vs %x", workload.ContentHash(a), workload.ContentHash(b))
	}
	if workload.ContentHash(a) == workload.ContentHash(&workload.Query{Select: trimmed}) {
		t.Fatal("an emptied clause set hashes like the full one")
	}
}
