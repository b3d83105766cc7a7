package sqlparse

import (
	"strings"
	"testing"

	"cliffguard/internal/schema"
)

const testDDL = `
-- star-schema fixture
CREATE TABLE sales (
    s_date BIGINT CARDINALITY 3650,
    s_store INT CARDINALITY 500,
    s_amount DOUBLE,
    s_note VARCHAR(64) CARDINALITY 10000
) ROWS 5000000 FACT;

CREATE TABLE stores (
    st_id INTEGER,
    st_region TEXT CARDINALITY 12
) ROWS 500;
`

func TestParseSchema(t *testing.T) {
	s, err := ParseSchema(testDDL)
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	sales, ok := s.Table("sales")
	if !ok {
		t.Fatalf("missing table sales")
	}
	if !sales.Fact || sales.Rows != 5000000 || len(sales.Columns) != 4 {
		t.Errorf("sales = fact=%v rows=%d cols=%d, want fact=true rows=5000000 cols=4",
			sales.Fact, sales.Rows, len(sales.Columns))
	}
	if got := sales.Columns[0].Type; got != schema.Int64 {
		t.Errorf("s_date type = %v, want Int64", got)
	}
	if got := sales.Columns[2].Type; got != schema.Float64 {
		t.Errorf("s_amount type = %v, want Float64", got)
	}
	if got := sales.Columns[3].Type; got != schema.String {
		t.Errorf("s_note type = %v, want String", got)
	}
	if got := sales.Columns[1].Cardinality; got != 500 {
		t.Errorf("s_store cardinality = %d, want 500", got)
	}
	// Unannotated cardinality defaults to the table's row count.
	if got := sales.Columns[2].Cardinality; got != 5000000 {
		t.Errorf("s_amount cardinality = %d, want 5000000", got)
	}
	stores, ok := s.Table("stores")
	if !ok {
		t.Fatalf("missing table stores")
	}
	if stores.Fact || stores.Rows != 500 {
		t.Errorf("stores = fact=%v rows=%d, want fact=false rows=500", stores.Fact, stores.Rows)
	}
	// Global IDs follow declaration order across tables.
	if got := stores.Columns[0].ID; got != 4 {
		t.Errorf("st_id global ID = %d, want 4", got)
	}
}

func TestParseSchemaDefaultsAndCase(t *testing.T) {
	s, err := ParseSchema("create table t (count bigint, v float);")
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	tab, ok := s.Table("t")
	if !ok {
		t.Fatalf("missing table t")
	}
	if tab.Rows != DefaultTableRows {
		t.Errorf("default rows = %d, want %d", tab.Rows, DefaultTableRows)
	}
	// "count" lexes as a SELECT keyword but must be accepted as a column name.
	if tab.Columns[0].Name != "count" {
		t.Errorf("column name = %q, want count", tab.Columns[0].Name)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := []string{
		"",
		"CREATE TABLE t (a BIGINT)",         // missing semicolon
		"CREATE TABLE t (a FROBNITZ);",      // unknown type
		"CREATE TABLE t (a BIGINT) ROWS 0;", // non-positive rows
		"CREATE TABLE t (a BIGINT CARDINALITY 0);",
		"CREATE VIEW v (a BIGINT);",
	}
	for _, ddl := range cases {
		if _, err := ParseSchema(ddl); err == nil {
			t.Errorf("ParseSchema(%q) = nil error, want error", ddl)
		}
	}
}

func TestParseSchemaRoundTripWithParser(t *testing.T) {
	s, err := ParseSchema(testDDL)
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	p := NewParser(s)
	q, err := p.Parse("SELECT s_store, SUM(s_amount) FROM sales WHERE s_date = 17 GROUP BY s_store")
	if err != nil {
		t.Fatalf("Parse against DDL schema: %v", err)
	}
	if q.Spec.Table != "sales" {
		t.Errorf("query table = %q, want sales", q.Spec.Table)
	}
}

func TestParseSchemaNonPositiveCardinalityMessage(t *testing.T) {
	_, err := ParseSchema("CREATE TABLE t (a BIGINT CARDINALITY 0);")
	if err == nil || !strings.Contains(err.Error(), "CARDINALITY") {
		t.Errorf("error = %v, want CARDINALITY mention", err)
	}
}
