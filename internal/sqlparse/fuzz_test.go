package sqlparse

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// FuzzParse drives the lexer and parser with arbitrary input: whatever the
// bytes, Parse must terminate and either produce a valid query or an error —
// never panic or hang. lexInto must give referenceLex's tokens and error
// text, and defaultCoder.Code referenceCode's value, on every input. A
// long-lived Parser, its scratch dirtied by other statements before and
// after, must return exactly the query (or the error) a fresh Parser does.
// (The corpus seeds the interesting grammar shapes; the lex-* files under
// testdata/fuzz seed the case folding and byte classes, and
// `go test -fuzz=FuzzParse ./internal/sqlparse` explores beyond them.)
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"SELECT sale_id FROM sales",
		"SELECT * FROM sales WHERE day < 100",
		"SELECT region, COUNT(*), SUM(amount) FROM sales WHERE day BETWEEN 1 AND 9 GROUP BY region ORDER BY region DESC LIMIT 5",
		"SELECT s.amount FROM sales s JOIN customers c ON s.customer_id = c.cust_key",
		"SELECT sale_id FROM sales WHERE region IN ('v1','v2')",
		"SELECT sale_id FROM sales WHERE region = 'it''s'",
		"SELECT amount -- comment\nFROM sales",
		"SELECT a FROM sales WHERE x <> 1",
		"select Amount from SALES where DAY >= 10;",
		"SELECT ((((",
		"'unterminated",
		"-- only a comment",
		"SELECT \x00 FROM sales",
		"SELECT a FROM b WHERE c = -9999999999999999999999",
	}
	// Two schemas: the small hand-built one, and the warehouse schema the
	// wlgen presets target — the checked-in corpus under testdata/fuzz is
	// rendered preset SQL, which only resolves against the latter.
	schemas := []*schema.Schema{fuzzSchema(), datagen.Warehouse(1)}
	for _, s := range seeds {
		f.Add(s)
	}
	// Statements that fill the scratch of a long-lived parser: each resolves
	// against one schema and fails part way on the other.
	dirty := []string{
		"SELECT s.region, COUNT(*), SUM(s.amount) FROM sales s JOIN customers c ON s.customer_id = c.cust_key WHERE s.day BETWEEN 1 AND 9 AND c.segment = 'it''s' GROUP BY s.region ORDER BY s.region DESC LIMIT 5",
		"SELECT COUNT(*), MAX(api_method) FROM events WHERE session_id = 139990",
	}
	warm := make([]*Parser, len(schemas))
	for i, sch := range schemas {
		warm[i] = NewParser(sch)
	}
	var lexBuf []token
	f.Fuzz(func(t *testing.T, sql string) {
		want, wantErr := referenceLex(sql)
		got, gotErr := lexInto(lexBuf, sql)
		lexBuf = got
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("lexInto error %v, reference %v: %q", gotErr, wantErr, sql)
		}
		if wantErr == nil && !slices.Equal(got, want) {
			t.Fatalf("lexInto tokens %v, reference %v: %q", got, want, sql)
		}
		for _, card := range []int64{0, 1, 20, 1 << 40} {
			col := schema.Column{Cardinality: card}
			if got, want := (defaultCoder{}).Code(col, sql), referenceCode(col, sql); got != want {
				t.Fatalf("Code(card %d) = %d, reference %d: %q", card, got, want, sql)
			}
		}
		for i, sch := range schemas {
			wq, werr := warm[i].Parse(sql)
			for _, d := range dirty {
				warm[i].Parse(d)
			}
			p := NewParser(sch)
			q, err := p.Parse(sql)
			if fmt.Sprint(werr) != fmt.Sprint(err) || !reflect.DeepEqual(wq, q) {
				t.Fatalf("long-lived parser gives %+v, %v; fresh parser %+v, %v: %q", wq, werr, q, err, sql)
			}
			if err != nil {
				continue // rejecting is fine; crashing is not
			}
			// Accepted queries must be structurally valid.
			if q.Spec == nil || q.Spec.Table == "" {
				t.Fatalf("accepted query without a table: %q", sql)
			}
			refs := q.Spec.ReferencedCols()
			for _, c := range refs {
				if !sch.ValidID(c) {
					t.Fatalf("accepted query with invalid column %d: %q", c, sql)
				}
			}
			// The engines read referenced columns from the clause sets; they
			// must agree with the Spec, column for column and in order.
			i := 0
			q.EachRef(func(c int) bool {
				if i >= len(refs) || refs[i] != c {
					t.Fatalf("EachRef visits %d at %d, ReferencedCols = %v: %q", c, i, refs, sql)
				}
				i++
				return true
			})
			if i != len(refs) {
				t.Fatalf("EachRef visits %d columns, ReferencedCols = %v: %q", i, refs, sql)
			}
			want := workload.NewColSet(refs...)
			for _, cols := range []workload.ColSet{want, q.Select, q.Where, workload.NewColSet(refs[:len(refs)/2]...)} {
				if q.RefsIn(cols) != cols.Contains(want) {
					t.Fatalf("RefsIn(%v) = %v, ReferencedCols = %v: %q", cols, q.RefsIn(cols), refs, sql)
				}
			}
			for _, pr := range q.Spec.Preds {
				if pr.Sel < 0 || pr.Sel > 1 {
					t.Fatalf("selectivity %g out of range: %q", pr.Sel, sql)
				}
			}
			// Accepted specs must render back to parseable SQL.
			rendered, err := Render(sch, q.Spec)
			if err != nil {
				t.Fatalf("accepted query failed to render: %q: %v", sql, err)
			}
			if _, err := p.Parse(rendered); err != nil {
				t.Fatalf("rendered SQL failed to re-parse: %q -> %q: %v", sql, rendered, err)
			}
		}
	})
}

func fuzzSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{
		{
			Name: "sales", Fact: true, Rows: 10_000,
			Columns: []schema.ColumnDef{
				{Name: "sale_id", Type: schema.Int64, Cardinality: 10_000},
				{Name: "customer_id", Type: schema.Int64, Cardinality: 1_000},
				{Name: "region", Type: schema.String, Cardinality: 20},
				{Name: "amount", Type: schema.Float64, Cardinality: 5_000},
				{Name: "day", Type: schema.Int64, Cardinality: 365},
			},
		},
		{
			Name: "customers", Rows: 1_000,
			Columns: []schema.ColumnDef{
				{Name: "cust_key", Type: schema.Int64, Cardinality: 1_000},
				{Name: "segment", Type: schema.String, Cardinality: 10},
			},
		},
	})
}

// FuzzParseSchema: on arbitrary bytes ParseSchema must return a schema or an
// error, never panic. An accepted schema must be one the engines can cost:
// every table has a positive row count, and global column IDs are dense
// 0..n-1 in declaration order with NumColumns equal to their total.
func FuzzParseSchema(f *testing.F) {
	for _, s := range []string{
		testDDL,
		"create table t (count bigint, v float);",
		"",
		"CREATE TABLE t (a BIGINT)",
		"CREATE TABLE t (a FROBNITZ);",
		"CREATE TABLE t (a BIGINT) ROWS 0;",
		"CREATE TABLE t (a BIGINT CARDINALITY 0);",
		"CREATE VIEW v (a BIGINT);",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ddl string) {
		s, err := ParseSchema(ddl)
		if err != nil {
			return
		}
		next := 0
		for _, tab := range s.Tables() {
			if tab.Rows <= 0 {
				t.Fatalf("table %q has %d rows: %q", tab.Name, tab.Rows, ddl)
			}
			for _, c := range tab.Columns {
				if c.ID != next {
					t.Fatalf("column %s.%s has ID %d, want %d: %q", tab.Name, c.Name, c.ID, next, ddl)
				}
				next++
			}
		}
		if s.NumColumns() != next {
			t.Fatalf("NumColumns = %d, tables declare %d columns: %q", s.NumColumns(), next, ddl)
		}
	})
}
