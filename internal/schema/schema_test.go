package schema

import (
	"strings"
	"testing"
)

func testDefs() []TableDef {
	return []TableDef{
		{
			Name: "orders", Fact: true, Rows: 1000,
			Columns: []ColumnDef{
				{Name: "id", Type: Int64, Cardinality: 1000},
				{Name: "total", Type: Float64, Cardinality: 500},
				{Name: "region", Type: String, Cardinality: 10},
			},
		},
		{
			Name: "customers", Rows: 100,
			Columns: []ColumnDef{
				{Name: "id", Type: Int64, Cardinality: 100},
				{Name: "name", Type: String, Cardinality: 100},
			},
		},
	}
}

func TestNewAssignsGlobalIDs(t *testing.T) {
	s, err := New(testDefs())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumColumns(); got != 5 {
		t.Fatalf("NumColumns = %d, want 5", got)
	}
	for i := 0; i < s.NumColumns(); i++ {
		if s.Column(i).ID != i {
			t.Errorf("Column(%d).ID = %d, want %d", i, s.Column(i).ID, i)
		}
	}
	orders, ok := s.Table("orders")
	if !ok {
		t.Fatal("orders table missing")
	}
	if !orders.Fact {
		t.Error("orders should be a fact table")
	}
	if got := orders.ColumnIDs(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("orders column IDs = %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		defs []TableDef
		want string
	}{
		{"duplicate table", append(testDefs(), testDefs()[0]), "duplicate table"},
		{"empty table name", []TableDef{{Name: "", Rows: 1, Columns: []ColumnDef{{Name: "a"}}}}, "empty table name"},
		{"zero rows", []TableDef{{Name: "t", Rows: 0, Columns: []ColumnDef{{Name: "a"}}}}, "non-positive row count"},
		{"no columns", []TableDef{{Name: "t", Rows: 1}}, "no columns"},
		{"duplicate column", []TableDef{{Name: "t", Rows: 1,
			Columns: []ColumnDef{{Name: "a"}, {Name: "a"}}}}, "duplicate column"},
		{"empty column name", []TableDef{{Name: "t", Rows: 1,
			Columns: []ColumnDef{{Name: ""}}}}, "empty column name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.defs); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New() error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestResolve(t *testing.T) {
	s := MustNew(testDefs())

	// Qualified names always resolve.
	id, err := s.Resolve("orders.total")
	if err != nil || s.Column(id).Name != "total" {
		t.Fatalf("Resolve(orders.total) = %d, %v", id, err)
	}
	// Unambiguous bare names resolve.
	if id, err := s.Resolve("region"); err != nil || s.Column(id).Table != "orders" {
		t.Fatalf("Resolve(region) = %d, %v", id, err)
	}
	// "id" is ambiguous (orders.id, customers.id).
	if _, err := s.Resolve("id"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("Resolve(id) error = %v, want ambiguous", err)
	}
	// Unknown names fail.
	if _, err := s.Resolve("nope"); err == nil {
		t.Fatal("Resolve(nope) should fail")
	}
	if _, err := s.Resolve("orders.nope"); err == nil {
		t.Fatal("Resolve(orders.nope) should fail")
	}
	// ResolveIn scopes to a table.
	if id, err := s.ResolveIn("customers", "id"); err != nil || s.Column(id).Table != "customers" {
		t.Fatalf("ResolveIn(customers, id) = %d, %v", id, err)
	}
	if _, err := s.ResolveIn("customers", "total"); err == nil {
		t.Fatal("ResolveIn(customers, total) should fail")
	}
	if _, err := s.ResolveIn("nope", "id"); err == nil {
		t.Fatal("ResolveIn(nope, id) should fail")
	}
}

func TestDefaultCardinality(t *testing.T) {
	s := MustNew([]TableDef{{
		Name: "t", Rows: 777,
		Columns: []ColumnDef{{Name: "a", Type: Int64}}, // no cardinality
	}})
	if got := s.Column(0).Cardinality; got != 777 {
		t.Fatalf("default cardinality = %d, want table rows 777", got)
	}
}

func TestRowWidthAndTypes(t *testing.T) {
	s := MustNew(testDefs())
	orders, _ := s.Table("orders")
	// int64 (8) + float64 (8) + dictionary-coded string (4)
	if got := orders.RowWidth(); got != 20 {
		t.Fatalf("RowWidth = %d, want 20", got)
	}
	if Int64.Width() != 8 || Float64.Width() != 8 || String.Width() != 4 {
		t.Error("unexpected type widths")
	}
	if Int64.String() != "BIGINT" || String.String() != "VARCHAR" || Float64.String() != "DOUBLE" {
		t.Error("unexpected type names")
	}
}

func TestFactTables(t *testing.T) {
	s := MustNew(testDefs())
	facts := s.FactTables()
	if len(facts) != 1 || facts[0].Name != "orders" {
		t.Fatalf("FactTables = %v", facts)
	}
}

func TestValidID(t *testing.T) {
	s := MustNew(testDefs())
	if !s.ValidID(0) || !s.ValidID(4) {
		t.Error("valid IDs rejected")
	}
	if s.ValidID(-1) || s.ValidID(5) {
		t.Error("invalid IDs accepted")
	}
}

func TestStringRendering(t *testing.T) {
	s := MustNew(testDefs())
	out := s.String()
	for _, want := range []string{"TABLE orders", "TABLE customers", "fact", "region", "VARCHAR"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
	if got := s.Column(1).Qualified(); got != "orders.total" {
		t.Errorf("Qualified = %q", got)
	}
}

func TestTableOwned(t *testing.T) {
	s, err := New(testDefs())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range s.Tables() {
		for id := -1; id <= s.NumColumns(); id++ {
			c := tb.Owned(id)
			want := s.ValidID(id) && s.Column(id).Table == tb.Name
			if (c != nil) != want {
				t.Fatalf("%s.Owned(%d) = %v, want owned=%v", tb.Name, id, c, want)
			}
			if c != nil && *c != s.Column(id) {
				t.Fatalf("%s.Owned(%d) = %+v, want %+v", tb.Name, id, *c, s.Column(id))
			}
		}
	}
}
