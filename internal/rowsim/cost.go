package rowsim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Cost-model constants. The row store reads whole rows on a scan (unlike the
// columnar simulator) and pays a random-access penalty when an index leads
// to base-table fetches. The paper's DBMS-X evaluation ran on a much smaller
// dataset (20 GB vs 151 GB); RowFraction scales modeled row counts to mirror
// that.
const (
	scanBytesPerMs   = 60_000.0 // sequential scan rate
	randomPenalty    = 100.0    // per-fetched-row random access multiplier
	probeMsPerLookup = 0.02     // B-tree descent
	aggRowsPerMs     = 8_000.0
	sortRowFactor    = 150_000.0
	fixedOverheadMs  = 12.0
)

// DB is a simulated row-store instance. It implements designer.CostModel.
// Cost keeps no state, so it is safe under CliffGuard's parallel
// neighborhood evaluation.
type DB struct {
	Schema *schema.Schema
	Data   *datagen.Dataset
	// RowFraction scales the schema's modeled row counts (default 1.0).
	RowFraction float64

	met *obs.Metrics // nil disables instrumentation

	auxMu  sync.Mutex
	perms  map[string][]int32 // index key -> sorted row permutation
	mviews map[string]*mvData // matview key -> materialized groups
}

// Instrument attaches a metrics registry that counts Cost invocations.
func (db *DB) Instrument(m *obs.Metrics) {
	db.met = m
}

// Open returns a cost-model-only row-store DB.
func Open(s *schema.Schema) *DB {
	return &DB{
		Schema:      s,
		RowFraction: 1.0,
		perms:       make(map[string][]int32),
		mviews:      make(map[string]*mvData),
	}
}

// OpenWithData returns a DB whose executor runs against the dataset.
func OpenWithData(data *datagen.Dataset) *DB {
	db := Open(data.Schema)
	db.Data = data
	return db
}

// rows returns the modeled row count of a table after RowFraction scaling.
func (db *DB) rows(t *schema.Table) float64 {
	f := db.RowFraction
	if f <= 0 {
		f = 1
	}
	return math.Max(float64(t.Rows)*f, 1)
}

// Cost implements designer.CostModel. A cancelled ctx aborts with ctx.Err()
// before any estimation work.
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
	_, best := db.cheapest(q, d)
	return best, nil
}

// bestAccess returns the chosen structure (nil = full scan) and its cost;
// the executor follows this decision.
func (db *DB) bestAccess(q *workload.Query, d *designer.Design) (designer.Structure, float64, error) {
	if err := db.check(q); err != nil {
		return nil, 0, err
	}
	s, best := db.cheapest(q, d)
	return s, best, nil
}

// cheapest picks, for a checked query, the structure of d that serves q at
// the lowest cost below the full-scan cost (nil: the scan wins).
func (db *DB) cheapest(q *workload.Query, d *designer.Design) (designer.Structure, float64) {
	var bestS designer.Structure
	qp := db.parts(q)
	best := qp.scanCost()
	if d != nil {
		for _, s := range d.Structures {
			if c, ok := db.pathCost(q, &qp, s); ok && c < best {
				best, bestS = c, s
			}
		}
	}
	return bestS, best
}

// pathCost is the cost of answering checked query q through structure s;
// false when s does not serve q or is not a row-store structure.
func (db *DB) pathCost(q *workload.Query, qp *queryParts, s designer.Structure) (float64, bool) {
	switch st := s.(type) {
	case *Index:
		if st.Serves(q) {
			return db.indexCost(q, qp, st), true
		}
	case *MatView:
		if st.Serves(q) {
			return db.mvCost(q, qp, st), true
		}
	}
	return 0, false
}

func (db *DB) check(q *workload.Query) error {
	if q == nil || q.Spec == nil {
		return fmt.Errorf("rowsim: query without spec: %w", designer.ErrUnsupported)
	}
	if _, ok := db.Schema.Table(q.Spec.Table); !ok {
		return fmt.Errorf("rowsim: unknown table %q: %w", q.Spec.Table, designer.ErrUnsupported)
	}
	bad := -1
	if q.EachRef(func(c int) bool {
		bad = c
		return db.Schema.ValidID(c) && db.Schema.Column(c).Table == q.Spec.Table
	}) {
		return nil
	}
	return fmt.Errorf("rowsim: column %d outside anchor %q: %w", bad, q.Spec.Table, designer.ErrUnsupported)
}

// queryParts are the parts of a checked query's cost that no access path
// changes: the anchor's modeled rows and row width, the spec's total
// selectivity, and the aggregation and sort cost over the selected rows,
// which the scan and every index path share.
type queryParts struct {
	rows, rowW, sel, post float64
}

// parts derives a checked query's queryParts.
func (db *DB) parts(q *workload.Query) queryParts {
	t, _ := db.Schema.Table(q.Spec.Table)
	qp := queryParts{rows: db.rows(t), rowW: float64(t.RowWidth()), sel: totalSel(q.Spec)}
	qp.post = db.postCost(q, qp.rows*qp.sel)
	return qp
}

// scanCost is a full-table scan: the row store reads entire rows.
func (qp *queryParts) scanCost() float64 {
	cost := fixedOverheadMs + qp.rows*qp.rowW/scanBytesPerMs
	return cost + qp.post
}

// indexCost estimates access via an index that serves q: the matched key
// prefix is the equality-prefix (optionally ending in one range) of q's
// predicates on the index key. A covering index avoids base-table fetches
// entirely.
func (db *DB) indexCost(q *workload.Query, qp *queryParts, idx *Index) float64 {
	matchSel := 1.0
	for _, keyCol := range idx.Cols {
		p, ok := predOn(q.Spec.Preds, keyCol)
		if !ok {
			break
		}
		matchSel *= clampSel(p.Sel)
		if p.Op != workload.Eq {
			break
		}
	}
	fetched := math.Max(qp.rows*matchSel, 1)

	cost := fixedOverheadMs + probeMsPerLookup*math.Log2(qp.rows+2)
	if idx.covers(q) {
		// Index-only scan over the matched range.
		var width float64
		q.EachRef(func(c int) bool {
			width += float64(db.Schema.Column(c).Type.Width())
			return true
		})
		cost += fetched * width / scanBytesPerMs
	} else {
		// Base-table fetch per matched row, with random access penalty.
		cost += fetched * qp.rowW * randomPenalty / scanBytesPerMs
	}
	return cost + qp.post
}

// mvCost estimates answering a query the view serves by scanning the view's
// groups and re-aggregating them.
func (db *DB) mvCost(q *workload.Query, qp *queryParts, mv *MatView) float64 {
	mvRows := math.Min(float64(mv.Groups()), qp.rows)
	var width float64
	for _, c := range mv.GroupBy {
		width += float64(db.Schema.Column(c).Type.Width())
	}
	width += float64(len(mv.Aggs)) * 8
	cost := fixedOverheadMs + mvRows*width/scanBytesPerMs
	return cost + db.postCost(q, mvRows*qp.sel)
}

// postCost adds aggregation and sort costs downstream of the access path.
func (db *DB) postCost(q *workload.Query, outRows float64) float64 {
	spec := q.Spec
	outRows = math.Max(outRows, 1)
	var cost float64
	if len(spec.GroupBy) > 0 {
		cost += outRows / aggRowsPerMs
		groups := 1.0
		for _, c := range spec.GroupBy {
			groups *= float64(db.Schema.Column(c).Cardinality)
			if groups > outRows {
				groups = outRows
				break
			}
		}
		outRows = math.Min(outRows, groups)
	}
	if len(spec.OrderBy) > 0 {
		cost += outRows * math.Log2(outRows+2) / sortRowFactor
	}
	return cost
}

func totalSel(spec *workload.Spec) float64 {
	s := 1.0
	for _, p := range spec.Preds {
		s *= clampSel(p.Sel)
	}
	return s
}

func predOn(preds []workload.Pred, col int) (workload.Pred, bool) {
	for _, p := range preds {
		if p.Col == col {
			return p, true
		}
	}
	return workload.Pred{}, false
}

func clampSel(s float64) float64 {
	if s <= 0 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

func mustTable(s *schema.Schema, name string) *schema.Table {
	t, ok := s.Table(name)
	if !ok {
		panic("rowsim: unknown table " + name)
	}
	return t
}

// NewIndex builds an index whose modeled size reflects this instance's
// RowFraction scaling (package-level NewIndex sizes at full modeled rows).
func (db *DB) NewIndex(table string, cols, include []int) (*Index, error) {
	idx, err := NewIndex(db.Schema, table, cols, include)
	if err != nil {
		return nil, err
	}
	if f := db.RowFraction; f > 0 && f < 1 {
		idx.size = int64(float64(idx.size) * f)
	}
	return idx, nil
}

// NewMatView builds a materialized view whose modeled size reflects this
// instance's RowFraction scaling.
func (db *DB) NewMatView(table string, groupBy []int, aggs []workload.Agg) (*MatView, error) {
	mv, err := NewMatView(db.Schema, table, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	if f := db.RowFraction; f > 0 && f < 1 {
		scaled := int64(float64(mv.groups) * 1) // group count does not scale linearly with rows
		rows := int64(db.rows(mustTable(db.Schema, table)))
		if scaled > rows {
			mv.size = mv.size / maxI64(mv.groups/rows, 1)
			mv.groups = rows
		}
	}
	return mv, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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
