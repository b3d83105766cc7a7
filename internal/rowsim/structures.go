// Package rowsim is an in-memory row-store database simulator standing in
// for the paper's anonymous "DBMS-X": a second, structurally different
// design problem (secondary B-tree indices and aggregate materialized views
// instead of sorted projections) used to demonstrate that CliffGuard treats
// the designer/database pair as a black box. Its nominal designer applies
// workload-compression heuristics before designing, which — as in the paper —
// makes it less prone to overfitting than the Vertica-style designer, so
// CliffGuard's improvement margin is smaller here.
package rowsim

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Index is a secondary B-tree-style index on an ordered column list.
// It implements designer.Structure.
type Index struct {
	Table string
	Cols  []int // key columns in order
	// Include lists non-key columns stored in the leaves (covering index).
	Include []int

	key  string
	size int64
}

// rowIDWidth is the per-entry pointer overhead of an index leaf.
const rowIDWidth = 8

// NewIndex builds an index on table over key columns cols with optional
// included columns, validating against the schema.
func NewIndex(s *schema.Schema, table string, cols, include []int) (*Index, error) {
	t, ok := s.Table(table)
	if !ok {
		return nil, fmt.Errorf("rowsim: unknown table %q", table)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("rowsim: index on %q has no key columns", table)
	}
	var width int64 = rowIDWidth
	seen := make(map[int]bool)
	var keyCols []int
	for _, c := range cols {
		if err := checkCol(s, table, c); err != nil {
			return nil, err
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		keyCols = append(keyCols, c)
		width += s.Column(c).Type.Width()
	}
	var inc []int
	for _, c := range include {
		if err := checkCol(s, table, c); err != nil {
			return nil, err
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		inc = append(inc, c)
		width += s.Column(c).Type.Width()
	}
	sort.Ints(inc)
	idx := &Index{Table: table, Cols: keyCols, Include: inc}
	idx.size = t.Rows * width
	idx.key = fmt.Sprintf("idx:%s:%s:inc=%s", table, intsKey(keyCols), intsKey(inc))
	return idx, nil
}

func checkCol(s *schema.Schema, table string, c int) error {
	if !s.ValidID(c) {
		return fmt.Errorf("rowsim: invalid column ID %d", c)
	}
	if s.Column(c).Table != table {
		return fmt.Errorf("rowsim: column %s not in table %q", s.Column(c).Qualified(), table)
	}
	return nil
}

// Key implements designer.Structure.
func (i *Index) Key() string { return i.key }

// SizeBytes implements designer.Structure.
func (i *Index) SizeBytes() int64 { return i.size }

// Describe implements designer.Structure.
func (i *Index) Describe() string {
	return fmt.Sprintf("INDEX %s(%s) INCLUDE(%s) size=%dMB",
		i.Table, intsKey(i.Cols), intsKey(i.Include), i.size/(1<<20))
}

// AllCols returns the union of key and included columns.
func (i *Index) AllCols() workload.ColSet {
	var set workload.ColSet
	for _, c := range i.Cols {
		set.Add(c)
	}
	for _, c := range i.Include {
		set.Add(c)
	}
	return set
}

// covers reports whether the index holds every column q references, so q
// can be answered index-only. It allocates nothing: the what-if path calls
// it per index per Cost.
func (i *Index) covers(q *workload.Query) bool {
	return q.EachRef(func(c int) bool {
		return slices.Contains(i.Cols, c) || slices.Contains(i.Include, c)
	})
}

// Serves implements designer.Server: the index can only be probed by a
// query on its table with a predicate on its leading key column.
func (i *Index) Serves(q *workload.Query) bool {
	if q == nil || q.Spec == nil || i.Table != q.Spec.Table || len(i.Cols) == 0 {
		return false
	}
	_, ok := predOn(q.Spec.Preds, i.Cols[0])
	return ok
}

// MatView is an aggregate materialized view: precomputed aggregates grouped
// by a column set. It implements designer.Structure.
type MatView struct {
	Table   string
	GroupBy []int // sorted
	Aggs    []workload.Agg

	key    string
	size   int64
	groups int64 // estimated number of groups
}

// NewMatView builds a materialized view over table grouped by groupBy with
// the given aggregates.
func NewMatView(s *schema.Schema, table string, groupBy []int, aggs []workload.Agg) (*MatView, error) {
	t, ok := s.Table(table)
	if !ok {
		return nil, fmt.Errorf("rowsim: unknown table %q", table)
	}
	if len(groupBy) == 0 {
		return nil, fmt.Errorf("rowsim: materialized view on %q has no group-by columns", table)
	}
	seen := make(map[int]bool)
	var gb []int
	var width int64
	groups := int64(1)
	for _, c := range groupBy {
		if err := checkCol(s, table, c); err != nil {
			return nil, err
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		gb = append(gb, c)
		width += s.Column(c).Type.Width()
		card := s.Column(c).Cardinality
		if card < 1 {
			card = 1
		}
		if groups < t.Rows {
			groups *= card
		}
	}
	if groups > t.Rows {
		groups = t.Rows
	}
	sort.Ints(gb)
	var dedupAggs []workload.Agg
	aggSeen := make(map[string]bool)
	for _, a := range aggs {
		if a.Col >= 0 {
			if err := checkCol(s, table, a.Col); err != nil {
				return nil, err
			}
		}
		k := fmt.Sprintf("%d:%d", a.Fn, a.Col)
		if aggSeen[k] {
			continue
		}
		aggSeen[k] = true
		dedupAggs = append(dedupAggs, a)
		width += 8
	}
	if len(dedupAggs) == 0 {
		return nil, fmt.Errorf("rowsim: materialized view on %q has no aggregates", table)
	}
	mv := &MatView{Table: table, GroupBy: gb, Aggs: dedupAggs, groups: groups}
	mv.size = groups * width
	var ab strings.Builder
	for i, a := range dedupAggs {
		if i > 0 {
			ab.WriteByte(',')
		}
		fmt.Fprintf(&ab, "%s(%d)", a.Fn, a.Col)
	}
	mv.key = fmt.Sprintf("mv:%s:gb=%s:aggs=%s", table, intsKey(gb), ab.String())
	return mv, nil
}

// Key implements designer.Structure.
func (m *MatView) Key() string { return m.key }

// SizeBytes implements designer.Structure.
func (m *MatView) SizeBytes() int64 { return m.size }

// Describe implements designer.Structure.
func (m *MatView) Describe() string {
	return fmt.Sprintf("MATVIEW %s GROUP BY (%s) %d aggs size=%dMB",
		m.Table, intsKey(m.GroupBy), len(m.Aggs), m.size/(1<<20))
}

// Serves implements designer.Server: the view answers an aggregate query on
// its table whose group-by is a subset of the view's (re-aggregation rolls
// finer groups up into coarser ones), whose every aggregate the view
// precomputes, and whose bare select columns and predicates are all on the
// view's group-by columns.
func (m *MatView) Serves(q *workload.Query) bool {
	if q == nil || q.Spec == nil || m.Table != q.Spec.Table {
		return false
	}
	spec := q.Spec
	if len(spec.GroupBy) == 0 || len(spec.Aggs) == 0 {
		return false
	}
	for _, c := range spec.GroupBy {
		if !slices.Contains(m.GroupBy, c) {
			return false
		}
	}
	for _, c := range spec.SelectCols {
		if !slices.Contains(m.GroupBy, c) {
			return false
		}
	}
	for _, a := range spec.Aggs {
		// MIN/MAX/COUNT/SUM roll up; AVG rolls up via SUM+COUNT (HasAgg
		// enforces availability).
		if !m.HasAgg(a) {
			return false
		}
	}
	for _, p := range spec.Preds {
		if !slices.Contains(m.GroupBy, p.Col) {
			return false
		}
	}
	return true
}

// Groups returns the estimated group count.
func (m *MatView) Groups() int64 { return m.groups }

// HasAgg reports whether the view precomputes the given aggregate. AVG is
// answerable when the view has both SUM and COUNT of the column.
func (m *MatView) HasAgg(a workload.Agg) bool {
	if a.Fn == workload.Avg {
		return m.hasExact(workload.Agg{Fn: workload.Sum, Col: a.Col}) &&
			(m.hasExact(workload.Agg{Fn: workload.Count, Col: -1}) ||
				m.hasExact(workload.Agg{Fn: workload.Count, Col: a.Col})) ||
			m.hasExact(a)
	}
	return m.hasExact(a)
}

func (m *MatView) hasExact(a workload.Agg) bool {
	for _, x := range m.Aggs {
		if x.Fn == a.Fn && x.Col == a.Col {
			return true
		}
	}
	return false
}

// GroupSet returns the group-by columns as a set.
func (m *MatView) GroupSet() workload.ColSet {
	var set workload.ColSet
	for _, c := range m.GroupBy {
		set.Add(c)
	}
	return set
}

func intsKey(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}
