// Package schema models a relational schema with globally numbered columns.
//
// CliffGuard's workload distance metric (Section 5 of the paper) represents a
// query as the set of columns it references, where columns are numbered
// 0..n-1 across the whole database. This package owns that numbering: every
// column in every table receives a unique global ID at schema construction
// time, and all other packages (workload, distance, engines, designers) refer
// to columns by that ID.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnType enumerates the value types the synthetic engines store.
type ColumnType int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 ColumnType = iota
	// Float64 is a 64-bit floating point column.
	Float64
	// String is a dictionary-encoded string column.
	String
)

// String returns the SQL-ish name of the type.
func (t ColumnType) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Width returns the modeled storage width in bytes of one value. Strings are
// dictionary encoded, so their in-projection width is a 4-byte code.
func (t ColumnType) Width() int64 {
	switch t {
	case String:
		return 4
	default:
		return 8
	}
}

// Column describes one column of one table.
type Column struct {
	ID    int    // global column ID, unique across the schema
	Table string // owning table name
	Name  string // column name, unique within the table
	Type  ColumnType
	// Cardinality is the approximate number of distinct values, used by the
	// engines' cost models for selectivity and group-count estimation.
	Cardinality int64
}

// Qualified returns the table-qualified name "table.column".
func (c Column) Qualified() string { return c.Table + "." + c.Name }

// Table describes one table: its name, columns (with global IDs), and the
// modeled row count.
type Table struct {
	Name    string
	Columns []Column
	Rows    int64
	// Fact marks anchor (fact) tables: tables that queries aggregate over and
	// that physical-design structures are anchored to.
	Fact bool
}

// ColumnIDs returns the global IDs of the table's columns in declaration order.
func (t *Table) ColumnIDs() []int {
	ids := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		ids[i] = c.ID
	}
	return ids
}

// Column returns the column with the given name, or false if absent.
func (t *Table) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Owned returns t's column with global ID id, or nil when id is not one of
// t's columns. New numbers each table's columns contiguously, so this is a
// range test and an index: no name comparison and no copy of the Column.
func (t *Table) Owned(id int) *Column {
	if len(t.Columns) == 0 {
		return nil
	}
	i := id - t.Columns[0].ID
	if i < 0 || i >= len(t.Columns) {
		return nil
	}
	return &t.Columns[i]
}

// RowWidth returns the modeled byte width of a full row.
func (t *Table) RowWidth() int64 {
	var w int64
	for _, c := range t.Columns {
		w += c.Type.Width()
	}
	return w
}

// Schema is an immutable collection of tables with a global column numbering.
type Schema struct {
	tables    []*Table
	byName    map[string]*Table
	columns   []Column       // indexed by global column ID
	qualified map[string]int // "table.column" -> global ID
	unique    map[string]int // bare column name -> global ID, only if unambiguous
}

// TableDef is the input to New: a table declaration without global IDs.
type TableDef struct {
	Name    string
	Fact    bool
	Rows    int64
	Columns []ColumnDef
}

// ColumnDef declares one column of a TableDef.
type ColumnDef struct {
	Name        string
	Type        ColumnType
	Cardinality int64
}

// New builds a Schema from table definitions, assigning global column IDs in
// declaration order. It returns an error on duplicate table names, duplicate
// column names within a table, empty names, or non-positive row counts.
func New(defs []TableDef) (*Schema, error) {
	s := &Schema{
		byName:    make(map[string]*Table, len(defs)),
		qualified: make(map[string]int),
		unique:    make(map[string]int),
	}
	ambiguous := make(map[string]bool)
	nextID := 0
	for _, def := range defs {
		if def.Name == "" {
			return nil, fmt.Errorf("schema: empty table name")
		}
		if _, dup := s.byName[def.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate table %q", def.Name)
		}
		if def.Rows <= 0 {
			return nil, fmt.Errorf("schema: table %q has non-positive row count %d", def.Name, def.Rows)
		}
		if len(def.Columns) == 0 {
			return nil, fmt.Errorf("schema: table %q has no columns", def.Name)
		}
		t := &Table{Name: def.Name, Rows: def.Rows, Fact: def.Fact}
		seen := make(map[string]bool, len(def.Columns))
		for _, cd := range def.Columns {
			if cd.Name == "" {
				return nil, fmt.Errorf("schema: table %q has an empty column name", def.Name)
			}
			if seen[cd.Name] {
				return nil, fmt.Errorf("schema: table %q has duplicate column %q", def.Name, cd.Name)
			}
			seen[cd.Name] = true
			card := cd.Cardinality
			if card <= 0 {
				card = def.Rows
			}
			col := Column{
				ID:          nextID,
				Table:       def.Name,
				Name:        cd.Name,
				Type:        cd.Type,
				Cardinality: card,
			}
			nextID++
			t.Columns = append(t.Columns, col)
			s.columns = append(s.columns, col)
			s.qualified[col.Qualified()] = col.ID
			if _, clash := s.unique[cd.Name]; clash {
				ambiguous[cd.Name] = true
			} else {
				s.unique[cd.Name] = col.ID
			}
		}
		s.tables = append(s.tables, t)
		s.byName[def.Name] = t
	}
	for name := range ambiguous {
		delete(s.unique, name)
	}
	return s, nil
}

// MustNew is New, panicking on error. Intended for static test fixtures.
func MustNew(defs []TableDef) *Schema {
	s, err := New(defs)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the total number of columns in the schema (the paper's n).
func (s *Schema) NumColumns() int { return len(s.columns) }

// Tables returns the tables in declaration order.
func (s *Schema) Tables() []*Table { return s.tables }

// Table returns the table by name, or false if absent.
func (s *Schema) Table(name string) (*Table, bool) {
	t, ok := s.byName[name]
	return t, ok
}

// Column returns the column with the given global ID.
func (s *Schema) Column(id int) Column {
	return s.columns[id]
}

// ValidID reports whether id is a valid global column ID.
func (s *Schema) ValidID(id int) bool { return id >= 0 && id < len(s.columns) }

// Resolve maps a column reference to its global ID. The reference may be
// table-qualified ("orders.total") or bare ("total"); a bare name resolves
// only if it is unambiguous across the schema.
func (s *Schema) Resolve(ref string) (int, error) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		if id, ok := s.qualified[ref]; ok {
			return id, nil
		}
		return 0, fmt.Errorf("schema: unknown column %q", ref)
	}
	if id, ok := s.unique[ref]; ok {
		return id, nil
	}
	if _, amb := s.uniqueAmbiguity(ref); amb {
		return 0, fmt.Errorf("schema: ambiguous column %q (qualify with a table name)", ref)
	}
	return 0, fmt.Errorf("schema: unknown column %q", ref)
}

func (s *Schema) uniqueAmbiguity(name string) (int, bool) {
	count := 0
	for _, t := range s.tables {
		if _, ok := t.Column(name); ok {
			count++
		}
	}
	return count, count > 1
}

// ResolveIn maps a bare column name within a specific table to its global ID.
func (s *Schema) ResolveIn(table, name string) (int, error) {
	t, ok := s.byName[table]
	if !ok {
		return 0, fmt.Errorf("schema: unknown table %q", table)
	}
	c, ok := t.Column(name)
	if !ok {
		return 0, fmt.Errorf("schema: table %q has no column %q", table, name)
	}
	return c.ID, nil
}

// FactTables returns the fact (anchor) tables in declaration order.
func (s *Schema) FactTables() []*Table {
	var facts []*Table
	for _, t := range s.tables {
		if t.Fact {
			facts = append(facts, t)
		}
	}
	return facts
}

// String renders a compact DDL-like description, tables sorted by name.
func (s *Schema) String() string {
	names := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		t := s.byName[name]
		fmt.Fprintf(&b, "TABLE %s (%d rows", t.Name, t.Rows)
		if t.Fact {
			b.WriteString(", fact")
		}
		b.WriteString(")\n")
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "  [%3d] %-24s %s\n", c.ID, c.Name, c.Type)
		}
	}
	return b.String()
}
