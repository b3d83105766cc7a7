package vertsim

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

// Cost-model constants, in milliseconds-producing units. They are tuned so
// that full scans of the warehouse fact tables land in the multi-second
// range and covered, sort-matched queries land in the tens of milliseconds —
// the latency regime of the paper's Figures 7-9.
const (
	// scanBytesPerMs is the modeled sequential scan rate (40 MB/s).
	scanBytesPerMs = 40_000.0
	// aggRowsPerMs is the hash-aggregation throughput.
	aggRowsPerMs = 8_000.0
	// sortRowFactor divides rows*log2(rows) for explicit sorts.
	sortRowFactor = 150_000.0
	// fixedOverheadMs models planning and dispatch per query.
	fixedOverheadMs = 30.0
	// scanCompression is the scan-rate advantage of reading a sorted,
	// RLE-encoded projection (storage compression is stronger, see
	// sortedCompression in projection.go).
	scanCompression = 0.9
)

// DB is a simulated columnar database instance: a schema, an optional
// physical dataset (for the executor), and a what-if cost model. DB
// implements designer.CostModel. Cost is pure arithmetic over the query's
// clause bitsets and the design's projections: it keeps no state, so it is
// safe under CliffGuard's parallel neighborhood evaluation.
type DB struct {
	Schema *schema.Schema
	Data   *datagen.Dataset // nil means cost-model only

	met *obs.Metrics // nil disables instrumentation

	sortedMu sync.Mutex
	sorted   map[string][]int32 // projection key -> row permutation (executor)
}

// Instrument attaches a metrics registry that counts Cost invocations. Call
// it before sharing the DB across goroutines.
func (db *DB) Instrument(m *obs.Metrics) {
	db.met = m
}

// Open returns a cost-model-only DB over the schema.
func Open(s *schema.Schema) *DB {
	return &DB{
		Schema: s,
		sorted: make(map[string][]int32),
	}
}

// OpenWithData returns a DB whose executor runs against the dataset.
func OpenWithData(data *datagen.Dataset) *DB {
	db := Open(data.Schema)
	db.Data = data
	return db
}

// Cost implements designer.CostModel: the estimated latency (ms) of q under
// design d, using the cheapest applicable access path (a covering projection
// or the super-projection). A cancelled ctx aborts with ctx.Err() before any
// estimation work.
func (db *DB) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if db.met != nil {
		db.met.CostModelCalls.Inc()
	}
	qt, err := db.prepare(q)
	if err != nil {
		return 0, err
	}
	_, best := bestPath(q, &qt, d)
	return best, nil
}

// BestPath returns the chosen projection (nil for the super-projection) and
// its estimated cost. The executor uses it to run the same plan the
// estimator picked.
func (db *DB) BestPath(q *workload.Query, d *designer.Design) (*Projection, float64, error) {
	qt, err := db.prepare(q)
	if err != nil {
		return nil, 0, err
	}
	p, best := bestPath(q, &qt, d)
	return p, best, nil
}

// bestPath picks the cheapest path for a prepared query: the
// super-projection or a projection of d that serves q.
func bestPath(q *workload.Query, qt *queryTerms, d *designer.Design) (*Projection, float64) {
	var bestP *Projection
	best := qt.cost(pathTermsOf(q, nil))
	if d != nil {
		for _, s := range d.Structures {
			p, ok := s.(*Projection)
			if !ok || !p.Serves(q) {
				continue
			}
			if c := qt.cost(pathTermsOf(q, p)); c < best {
				best, bestP = c, p
			}
		}
	}
	return bestP, best
}

// queryTerms are the parts of a query's cost that no access path changes,
// derived once per call by prepare:
//
//	outRows = max(rows * totalSel, 1)
//	agg     = outRows / aggRate         (if grouped)
//	sort    = n*log2(n+2) / sortRate    (if ORDER BY; n is outRows capped
//	                                     by the group estimate)
type queryTerms struct {
	rows    float64 // the anchor's row count
	width   float64 // referenced byte width per row
	outRows float64 // rows left after every predicate
	agg     float64 // hash-aggregation cost: > 0 with GROUP BY, else 0
	sort    float64 // explicit sort cost: > 0 with ORDER BY, else 0
}

// prepare validates that q is within the simulator's costable subset (a
// spec over a single known anchor table whose referenced columns all belong
// to that table) and derives its query terms, in one walk of the referenced
// columns.
func (db *DB) prepare(q *workload.Query) (queryTerms, error) {
	if q == nil || q.Spec == nil {
		return queryTerms{}, fmt.Errorf("vertsim: query without spec: %w", designer.ErrUnsupported)
	}
	t, ok := db.Schema.Table(q.Spec.Table)
	if !ok {
		return queryTerms{}, fmt.Errorf("vertsim: unknown table %q: %w", q.Spec.Table, designer.ErrUnsupported)
	}
	var width float64
	bad := -1
	if !q.EachRef(func(c int) bool {
		col := t.Owned(c)
		if col == nil {
			bad = c
			return false
		}
		width += float64(col.Type.Width())
		return true
	}) {
		if !db.Schema.ValidID(bad) {
			return queryTerms{}, fmt.Errorf("vertsim: invalid column %d: %w", bad, designer.ErrUnsupported)
		}
		return queryTerms{}, fmt.Errorf("vertsim: column %s outside anchor %q: %w",
			db.Schema.Column(bad).Qualified(), q.Spec.Table, designer.ErrUnsupported)
	}

	qt := queryTerms{rows: float64(t.Rows), width: width}
	totalSel := 1.0
	for _, pred := range q.Spec.Preds {
		totalSel *= clampSel(pred.Sel)
	}
	qt.outRows = math.Max(qt.rows*totalSel, 1)
	outRows := qt.outRows
	if len(q.Spec.GroupBy) > 0 {
		qt.agg = outRows / aggRowsPerMs
		outRows = math.Min(outRows, db.groupEstimate(q.Spec.GroupBy))
	}
	if len(q.Spec.OrderBy) > 0 {
		qt.sort = outRows * math.Log2(outRows+2) / sortRowFactor
	}
	return qt, nil
}

// pathTerms are the parts of a query's cost that its access path decides.
type pathTerms struct {
	prefixSel   float64 // selectivity of the predicates on the sort-key prefix
	compression float64 // scan-rate factor of the path's encoding
	streamed    bool    // rows arrive clustered by the GROUP BY key
	ordered     bool    // the path's sort order delivers the ORDER BY
}

// pathTermsOf derives q's path terms for projection p (nil = the
// super-projection). Predicates matching p's sort-key prefix prune the scan:
// equalities extend the usable prefix, the first range predicate uses it and
// stops, and the super-projection (no sort order) always scans everything.
func pathTermsOf(q *workload.Query, p *Projection) pathTerms {
	pt := pathTerms{prefixSel: 1.0, compression: 1.0} // super-projection: unsorted, no run-length encoding
	var sortCols []workload.OrderCol
	if p != nil {
		sortCols = p.SortCols
		if len(sortCols) > 0 {
			// Sorted projections scan somewhat compressed data; the real win
			// comes from sort-prefix pruning, not from mere coverage.
			pt.compression = scanCompression
		}
	}
	for _, oc := range sortCols {
		pred, ok := predOn(q.Spec.Preds, oc.Col)
		if !ok {
			break
		}
		pt.prefixSel *= clampSel(pred.Sel)
		if pred.Op != workload.Eq {
			break // a range consumes the prefix
		}
	}
	pt.streamed = groupBySortStreamed(q, sortCols)
	pt.ordered = orderSatisfied(q.Spec, sortCols)
	return pt
}

// rowsScanned is the number of rows the path reads after sort-prefix
// pruning.
func (qt *queryTerms) rowsScanned(pt pathTerms) float64 {
	return math.Max(qt.rows*pt.prefixSel, 1)
}

// cost combines the query and path terms into the estimated latency:
//
//	fixed + rowsScanned*width*compression/scanRate
//	      + agg (x0.1 when streamed) + sort (unless the path is ordered)
func (qt *queryTerms) cost(pt pathTerms) float64 {
	cost := fixedOverheadMs
	cost += qt.rowsScanned(pt) * qt.width * pt.compression / scanBytesPerMs
	if qt.agg != 0 {
		aggCost := qt.agg
		if pt.streamed {
			// Rows arrive clustered by the grouping key: streaming (one-pass,
			// no hash table) aggregation.
			aggCost *= 0.1
		}
		cost += aggCost
	}
	if qt.sort != 0 && !pt.ordered {
		cost += qt.sort
	}
	return cost
}

// groupBySortStreamed reports whether the path's sort key leads with the
// query's group-by columns (in any order), enabling one-pass aggregation.
// The prefix is tested against the query's GROUP BY bitset, which holds
// exactly the Spec's group-by columns.
func groupBySortStreamed(q *workload.Query, sortCols []workload.OrderCol) bool {
	n := len(q.Spec.GroupBy)
	if n == 0 || n > len(sortCols) {
		return false
	}
	for i := 0; i < n; i++ {
		if !q.GroupBy.Has(sortCols[i].Col) {
			return false
		}
	}
	return true
}

// groupEstimate caps the number of output groups by the product of group-by
// column cardinalities.
func (db *DB) groupEstimate(groupBy []int) float64 {
	est := 1.0
	for _, c := range groupBy {
		est *= float64(db.Schema.Column(c).Cardinality)
		if est > 1e12 {
			return 1e12
		}
	}
	return est
}

// orderSatisfied reports whether a path's sort order already delivers the
// query's ORDER BY (ORDER BY must be a direction-matching prefix of the sort
// key, and only when the query does not regroup rows).
func orderSatisfied(spec *workload.Spec, sortCols []workload.OrderCol) bool {
	if len(spec.GroupBy) > 0 {
		return false // aggregation destroys scan order
	}
	if len(spec.OrderBy) > len(sortCols) {
		return false
	}
	for i, oc := range spec.OrderBy {
		if sortCols[i].Col != oc.Col || sortCols[i].Desc != oc.Desc {
			return false
		}
	}
	return true
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

// BaselineCost returns f(W, empty design): the workload's cost with no
// projections (the paper's NoDesign upper bound, also used by delta_latency).
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
