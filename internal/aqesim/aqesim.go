// Package aqesim is an approximate-query-engine simulator: the third
// physical-design problem of the paper's taxonomy (Section 2 lists
// "different types of samples (e.g., stratified on different columns)" as
// the design objects of approximate databases such as BlinkDB, and the
// conclusion proposes extending CliffGuard to "other types of design
// problems"). Its design structures are stratified samples; a query runs on
// the smallest sample whose stratification covers the query's grouping and
// filtering columns, falling back to the full table otherwise.
//
// The engine exists to demonstrate that CliffGuard's loop is genuinely
// black-box: nothing in internal/core changes when the structure type is a
// sample instead of a projection or an index.
package aqesim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Cost-model constants (milliseconds-producing units).
const (
	scanBytesPerMs  = 50_000.0
	aggRowsPerMs    = 8_000.0
	fixedOverheadMs = 15.0
	// minGroupRows is the per-stratum row floor that keeps group estimates
	// statistically usable; it bounds how small a stratified sample can be.
	minGroupRows = 100
)

// Sample is a stratified sample of a table: SampleFraction of the rows,
// stratified on Strata so that groups over (a subset of) those columns keep
// proportional representation. It implements designer.Structure.
type Sample struct {
	Table    string
	Strata   []int // sorted stratification columns
	Fraction float64

	key  string
	size int64
}

// NewSample builds a stratified sample over table. Fraction must lie in
// (0, 1); strata columns must belong to the table. A stratified sample needs
// minGroupRows per stratum, so the fraction is raised if required.
func NewSample(s *schema.Schema, table string, strata []int, fraction float64) (*Sample, error) {
	t, ok := s.Table(table)
	if !ok {
		return nil, fmt.Errorf("aqesim: unknown table %q", table)
	}
	if fraction <= 0 || fraction >= 1 {
		return nil, fmt.Errorf("aqesim: sample fraction %g outside (0,1)", fraction)
	}
	seen := make(map[int]bool)
	var cols []int
	groups := int64(1)
	for _, c := range strata {
		if !s.ValidID(c) {
			return nil, fmt.Errorf("aqesim: invalid column ID %d", c)
		}
		if s.Column(c).Table != table {
			return nil, fmt.Errorf("aqesim: column %s not in table %q", s.Column(c).Qualified(), table)
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		cols = append(cols, c)
		if card := s.Column(c).Cardinality; card > 0 && groups < t.Rows {
			groups *= card
		}
	}
	if groups > t.Rows {
		groups = t.Rows
	}
	sort.Ints(cols)
	// Raise the fraction until every stratum keeps minGroupRows on average.
	if need := float64(groups*minGroupRows) / float64(t.Rows); fraction < need {
		fraction = math.Min(need, 0.5)
	}
	sm := &Sample{Table: table, Strata: cols, Fraction: fraction}
	sm.size = int64(float64(t.Rows*t.RowWidth()) * fraction)
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	sm.key = fmt.Sprintf("sample:%s:strata=%s:f=%.4f", table, strings.Join(parts, ","), fraction)
	return sm, nil
}

// Key implements designer.Structure.
func (s *Sample) Key() string { return s.key }

// SizeBytes implements designer.Structure.
func (s *Sample) SizeBytes() int64 { return s.size }

// Describe implements designer.Structure.
func (s *Sample) Describe() string {
	parts := make([]string, len(s.Strata))
	for i, c := range s.Strata {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("SAMPLE %s STRATIFIED ON (%s) fraction=%.3f size=%dMB",
		s.Table, strings.Join(parts, ","), s.Fraction, s.size/(1<<20))
}

// StrataSet returns the stratification columns as a set.
func (s *Sample) StrataSet() workload.ColSet {
	return workload.NewColSet(s.Strata...)
}

// Serves implements designer.Server: the sample serves the queries on its
// table it can answer with bounded error: aggregate queries only, with every
// grouping and filtering column inside the stratification set (otherwise
// strata do not control the estimator's variance for that query).
func (s *Sample) Serves(q *workload.Query) bool {
	if q == nil || q.Spec == nil || s.Table != q.Spec.Table {
		return false
	}
	spec := q.Spec
	if len(spec.Aggs) == 0 {
		return false // point/detail queries need exact rows
	}
	for _, c := range spec.GroupBy {
		if !slices.Contains(s.Strata, c) {
			return false
		}
	}
	for _, p := range spec.Preds {
		if !slices.Contains(s.Strata, p.Col) {
			return false
		}
	}
	return true
}

// DB is the approximate engine's cost model. It implements
// designer.CostModel. Cost keeps no state, so it is safe under CliffGuard's
// parallel neighborhood evaluation.
type DB struct {
	Schema *schema.Schema

	met *obs.Metrics // nil disables instrumentation
}

// Open returns a cost-model-only approximate engine over the schema.
func Open(s *schema.Schema) *DB {
	return &DB{Schema: s}
}

// Instrument attaches a metrics registry that counts Cost invocations.
func (db *DB) Instrument(m *obs.Metrics) {
	db.met = m
}

// Cost implements designer.CostModel: an aggregate query answerable from a
// stratified sample scans only the sample; everything else scans the table.
// A cancelled ctx aborts with ctx.Err() before any estimation work.
func (db *DB) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if db.met != nil {
		db.met.CostModelCalls.Inc()
	}
	if err := db.check(q); err != nil {
		return 0, err
	}
	best := db.pathCost(q, nil)
	if d != nil {
		for _, st := range d.Structures {
			sm, ok := st.(*Sample)
			if !ok || !sm.Serves(q) {
				continue
			}
			if c := db.pathCost(q, sm); c < best {
				best = c
			}
		}
	}
	return best, nil
}

func (db *DB) check(q *workload.Query) error {
	if q == nil || q.Spec == nil {
		return fmt.Errorf("aqesim: query without spec: %w", designer.ErrUnsupported)
	}
	if _, ok := db.Schema.Table(q.Spec.Table); !ok {
		return fmt.Errorf("aqesim: unknown table %q: %w", q.Spec.Table, designer.ErrUnsupported)
	}
	bad := -1
	if q.EachRef(func(c int) bool {
		bad = c
		return db.Schema.ValidID(c) && db.Schema.Column(c).Table == q.Spec.Table
	}) {
		return nil
	}
	return fmt.Errorf("aqesim: column %d outside anchor %q: %w", bad, q.Spec.Table, designer.ErrUnsupported)
}

// pathCost estimates the latency of q via sample sm (nil = the full table).
func (db *DB) pathCost(q *workload.Query, sm *Sample) float64 {
	t, _ := db.Schema.Table(q.Spec.Table)
	rows := float64(t.Rows)
	fraction := 1.0
	if sm != nil {
		fraction = sm.Fraction
	}
	var width float64
	q.EachRef(func(c int) bool {
		width += float64(db.Schema.Column(c).Type.Width())
		return true
	})
	scanned := math.Max(rows*fraction, 1)
	sel := 1.0
	for _, p := range q.Spec.Preds {
		s := p.Sel
		if s <= 0 {
			s = 1e-9
		}
		if s > 1 {
			s = 1
		}
		sel *= s
	}
	cost := fixedOverheadMs + scanned*width/scanBytesPerMs
	if len(q.Spec.GroupBy) > 0 {
		cost += math.Max(scanned*sel, 1) / aggRowsPerMs
	}
	return cost
}

// BaselineCost returns f(W, empty design).
func (db *DB) BaselineCost(w *workload.Workload) float64 {
	var total float64
	for _, it := range w.Items {
		c, err := db.Cost(context.Background(), it.Q, nil)
		if err != nil {
			continue
		}
		total += it.Weight * c
	}
	return total
}
