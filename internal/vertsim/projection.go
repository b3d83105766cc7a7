// Package vertsim is an in-memory columnar database simulator modeled on
// Vertica, the primary evaluation target of the CliffGuard paper. Its
// physical design objects are sorted projections: column subsets of an
// anchor table stored sorted by a key prefix. The package provides
//
//   - a what-if cost model (the "query optimizer's cost estimates" that the
//     paper's f(W, D) consults),
//   - a real executor over synthetic data (for calibration and examples), and
//   - a DBD-style greedy nominal designer (the paper's ExistingDesigner).
//
// The essential behaviour preserved from Vertica: a query that is fully
// covered by a projection whose sort order matches its predicates runs
// orders of magnitude faster than one that must fall back to scanning the
// super-projection — the performance cliff that CliffGuard guards against.
package vertsim

import (
	"fmt"
	"strconv"
	"strings"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Projection is one sorted projection: a subset of an anchor table's
// columns, sorted by SortCols. It implements designer.Structure.
type Projection struct {
	Anchor   string
	Cols     workload.ColSet
	SortCols []workload.OrderCol

	key  string
	size int64
}

// sortedCompression models the storage saving of run-length encoding on the
// sorted key prefix of a projection.
const sortedCompression = 0.4

// NewProjection builds a projection over the given columns of anchor,
// sorted by sortCols (which must be members of cols). It validates against
// the schema and precomputes identity and size.
func NewProjection(s *schema.Schema, anchor string, cols []int, sortCols []workload.OrderCol) (*Projection, error) {
	t, ok := s.Table(anchor)
	if !ok {
		return nil, fmt.Errorf("vertsim: unknown anchor table %q", anchor)
	}
	var set workload.ColSet
	var width int64
	for _, c := range cols {
		col := t.Owned(c)
		if col == nil {
			if !s.ValidID(c) {
				return nil, fmt.Errorf("vertsim: invalid column ID %d", c)
			}
			return nil, fmt.Errorf("vertsim: column %s does not belong to anchor %q", s.Column(c).Qualified(), anchor)
		}
		if set.Has(c) {
			continue
		}
		set.Add(c)
		width += col.Type.Width()
	}
	if set.Empty() {
		return nil, fmt.Errorf("vertsim: projection on %q has no columns", anchor)
	}
	// Sort keys are a handful of columns: a linear scan dedupes them
	// without a map.
	dedup := make([]workload.OrderCol, 0, len(sortCols))
	for _, oc := range sortCols {
		if !set.Has(oc.Col) {
			return nil, fmt.Errorf("vertsim: sort column %d not in projection column set", oc.Col)
		}
		if !hasSortCol(dedup, oc.Col) {
			dedup = append(dedup, oc)
		}
	}
	p := &Projection{Anchor: anchor, Cols: set, SortCols: dedup}
	compression := 1.0
	if len(dedup) > 0 {
		compression = sortedCompression
	}
	p.size = int64(float64(t.Rows*width) * compression)
	var buf [128]byte
	b := append(buf[:0], "proj:"...)
	b = append(b, anchor...)
	b = append(b, ':')
	b = set.AppendKey(b)
	b = append(b, ":sort="...)
	for i, oc := range dedup {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(oc.Col), 10)
		if oc.Desc {
			b = append(b, '-')
		}
	}
	p.key = string(b)
	return p, nil
}

// hasSortCol reports whether key already sorts on col.
func hasSortCol(key []workload.OrderCol, col int) bool {
	for _, oc := range key {
		if oc.Col == col {
			return true
		}
	}
	return false
}

// Key implements designer.Structure.
func (p *Projection) Key() string { return p.key }

// SizeBytes implements designer.Structure.
func (p *Projection) SizeBytes() int64 { return p.size }

// Describe implements designer.Structure.
func (p *Projection) Describe() string {
	sorts := make([]string, len(p.SortCols))
	for i, oc := range p.SortCols {
		dir := ""
		if oc.Desc {
			dir = " DESC"
		}
		sorts[i] = fmt.Sprintf("%d%s", oc.Col, dir)
	}
	return fmt.Sprintf("PROJECTION %s cols=%s order=(%s) size=%dMB",
		p.Anchor, p.Cols, strings.Join(sorts, ","), p.size/(1<<20))
}

// Serves implements designer.Server: a projection can only answer queries
// on its anchor table whose every referenced column it stores; for any other
// query the cost model falls back to the super-projection by construction.
// Column IDs are schema-global, so the bitset test rejects nearly every
// query of another table too; the anchor name is compared last.
func (p *Projection) Serves(q *workload.Query) bool {
	return q != nil && q.Spec != nil && q.RefsIn(p.Cols) && p.Anchor == q.Spec.Table
}

// Covers reports whether the projection contains every column in need.
func (p *Projection) Covers(need workload.ColSet) bool { return p.Cols.Contains(need) }
