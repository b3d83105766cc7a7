// Package wlgen generates the evaluation workloads. The paper's R1 is a real
// 430K-query, 1-year OLAP workload from a Vertica customer; S1 and S2 are
// synthetic re-orderings of it with controlled drift (Section 6.1, Table 1).
// None of the raw queries are available, so this package reproduces their
// published *statistics* instead: a template birth/death process over the
// warehouse fact tables whose week-by-week churn is calibrated, by bisection
// against the actual delta_euclidean metric, to hit per-month drift targets
// matching Table 1 (and, through its core/ephemeral template mixture, the
// template-overlap decay of Figure 5).
package wlgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// predClass describes one predicate slot of a template: the column, the
// operator shape, and the target selectivity. Literals are drawn per query
// instance so that instances share a template (column sets) but not SQL text.
type predClass struct {
	col schema.Column
	op  workload.CmpOp // Eq or Between
	sel float64
}

// template is one logical query shape: fixed column sets, instance-varying
// literals.
type template struct {
	id      int
	table   string
	selCols []int
	aggs    []workload.Agg
	preds   []predClass
	groupBy []int
	orderBy []workload.OrderCol
	limit   int

	rep *workload.Query // cached representative (for distance calibration)
}

// instantiate draws literals for every predicate and returns a concrete Spec.
func (t *template) instantiate(rng *rand.Rand) *workload.Spec {
	spec := &workload.Spec{
		Table:      t.table,
		SelectCols: append([]int(nil), t.selCols...),
		Aggs:       append([]workload.Agg(nil), t.aggs...),
		GroupBy:    append([]int(nil), t.groupBy...),
		OrderBy:    append([]workload.OrderCol(nil), t.orderBy...),
		Limit:      t.limit,
	}
	for _, pc := range t.preds {
		card := pc.col.Cardinality
		if card < 2 {
			card = 2
		}
		switch pc.op {
		case workload.Eq:
			v := rng.Int63n(card)
			spec.Preds = append(spec.Preds, workload.Pred{
				Col: pc.col.ID, Op: workload.Eq, Lo: v, Hi: v, Sel: 1 / float64(card)})
		default:
			span := int64(pc.sel * float64(card))
			if span < 1 {
				span = 1
			}
			maxLo := card - span
			if maxLo < 1 {
				maxLo = 1
			}
			lo := rng.Int63n(maxLo)
			spec.Preds = append(spec.Preds, workload.Pred{
				Col: pc.col.ID, Op: workload.Between, Lo: lo, Hi: lo + span - 1,
				Sel: float64(span) / float64(card)})
		}
	}
	return spec
}

// representative returns a cached weight-bearing query for distance
// computations during calibration; f supplies its seeded rand.
func (t *template) representative(f *templateFactory) *workload.Query {
	if t.rep == nil {
		t.rep = workload.FromSpec(workload.NextID(), time.Time{}, t.instantiate(f.seeded(int64(t.id)*2654435761+17)))
	}
	return t.rep
}

// templateFactory builds random templates over a schema's fact tables, with
// per-table column popularity so that some columns are hot (as in real
// analytical workloads).
type templateFactory struct {
	schema *schema.Schema
	facts  []*schema.Table
	// popularity[table][i] is a sampling weight for the table's i-th column.
	popularity map[string][]float64
	nextID     int
	// scratch is the rand behind seeded, reused across the many per-template
	// seeds calibration draws.
	scratch *rand.Rand
}

// seeded re-seeds the factory's scratch rand with seed and returns it: the
// same stream as rand.New(rand.NewSource(seed)), without a new source per
// call. The stream is valid until the next seeded call.
func (f *templateFactory) seeded(seed int64) *rand.Rand {
	f.scratch.Seed(seed)
	return f.scratch
}

func newTemplateFactory(s *schema.Schema, rng *rand.Rand) (*templateFactory, error) {
	facts := s.FactTables()
	if len(facts) == 0 {
		return nil, fmt.Errorf("wlgen: schema has no fact tables")
	}
	f := &templateFactory{
		schema:     s,
		facts:      facts,
		popularity: make(map[string][]float64),
		nextID:     1,
		scratch:    rand.New(rand.NewSource(1)),
	}
	for _, t := range facts {
		// Zipf popularity over a random rank permutation of the columns: a
		// few hot columns appear in most templates (so templates overlap
		// heavily, as real analytic workloads do), and a long tail of cold
		// columns differentiates them.
		ranks := rng.Perm(len(t.Columns))
		pops := make([]float64, len(t.Columns))
		for i := range pops {
			pops[i] = 1.0 / math.Pow(float64(ranks[i]+1), 1.3)
		}
		f.popularity[t.Name] = pops
	}
	return f, nil
}

// pickColumn draws a column index of table t by popularity, excluding those
// already in used.
func (f *templateFactory) pickColumn(rng *rand.Rand, t *schema.Table, used map[int]bool) (schema.Column, bool) {
	pops := f.popularity[t.Name]
	var total float64
	for i, c := range t.Columns {
		if !used[c.ID] {
			total += pops[i]
		}
	}
	if total == 0 {
		return schema.Column{}, false
	}
	r := rng.Float64() * total
	for i, c := range t.Columns {
		if used[c.ID] {
			continue
		}
		r -= pops[i]
		if r <= 0 {
			return c, true
		}
	}
	return schema.Column{}, false
}

// newTemplate generates a fresh random (ephemeral) template. Ephemeral
// templates carry at least one selective predicate, so an ideal physical
// design speeds them up by well over the paper's 3x designability threshold.
func (f *templateFactory) newTemplate(rng *rand.Rand) *template {
	tbl := f.facts[rng.Intn(len(f.facts))]
	t := &template{id: f.nextID, table: tbl.Name}
	f.nextID++
	used := make(map[int]bool)

	addPred := func(forceSelective bool) {
		var c schema.Column
		var ok bool
		if forceSelective {
			// Selective filters come from the table's predicate pool.
			c, ok = f.pickPredColumn(rng, tbl, used)
		}
		if !ok {
			c, ok = f.pickColumn(rng, tbl, used)
		}
		if !ok {
			return
		}
		used[c.ID] = true
		pc := predClass{col: c}
		if c.Cardinality >= 100 && rng.Float64() < 0.7 {
			pc.op = workload.Eq
			pc.sel = 1 / float64(maxI64(c.Cardinality, 2))
		} else {
			pc.op = workload.Between
			// Range selectivity log-uniform in [0.001, 0.1].
			pc.sel = 0.001 * pow(100, rng.Float64())
		}
		t.preds = append(t.preds, pc)
	}

	addPred(true)
	for i := rng.Intn(2); i > 0; i-- {
		addPred(false)
	}

	aggregate := rng.Float64() < 0.65
	if aggregate {
		nGroup := 1 + rng.Intn(3)
		for i := 0; i < nGroup; i++ {
			if c, ok := f.pickColumn(rng, tbl, used); ok && c.Cardinality <= 100_000 {
				used[c.ID] = true
				t.groupBy = append(t.groupBy, c.ID)
			}
		}
		nAgg := 1 + rng.Intn(2)
		t.aggs = append(t.aggs, workload.Agg{Fn: workload.Count, Col: -1})
		for i := 1; i < nAgg; i++ {
			if c, ok := f.pickColumn(rng, tbl, used); ok {
				used[c.ID] = true
				fns := []workload.AggFn{workload.Sum, workload.Avg, workload.Min, workload.Max}
				t.aggs = append(t.aggs, workload.Agg{Fn: fns[rng.Intn(len(fns))], Col: c.ID})
			}
		}
		// Grouped queries select their group-by columns.
		t.selCols = append(t.selCols, t.groupBy...)
		if len(t.groupBy) > 0 && rng.Float64() < 0.3 {
			t.orderBy = append(t.orderBy, workload.OrderCol{Col: t.groupBy[0], Desc: rng.Intn(2) == 0})
		}
	} else {
		nSel := 1 + rng.Intn(4)
		for i := 0; i < nSel; i++ {
			if c, ok := f.pickColumn(rng, tbl, used); ok {
				used[c.ID] = true
				t.selCols = append(t.selCols, c.ID)
			}
		}
		if rng.Float64() < 0.5 && len(t.selCols) > 0 {
			t.orderBy = append(t.orderBy, workload.OrderCol{Col: t.selCols[0], Desc: rng.Intn(2) == 0})
			t.limit = 100 * (1 + rng.Intn(10))
		}
	}
	if len(t.selCols) == 0 && len(t.aggs) == 0 {
		if c, ok := f.pickColumn(rng, tbl, used); ok {
			t.selCols = append(t.selCols, c.ID)
		}
	}
	return t
}

// newCoreTemplate generates a long-lived "core" template: a broad reporting
// or housekeeping scan with weak (or no) predicates. Like the paper's
// non-designable queries (15K of R1's 15.5K parseable queries saw < 3x
// headroom from any design, Section 6.4), these stabilize the template
// overlap statistics but are filtered out of the latency evaluation.
func (f *templateFactory) newCoreTemplate(rng *rand.Rand) *template {
	tbl := f.facts[rng.Intn(len(f.facts))]
	t := &template{id: f.nextID, table: tbl.Name}
	f.nextID++
	used := make(map[int]bool)

	// 0-2 unselective range predicates.
	for i := rng.Intn(3); i > 0; i-- {
		if c, ok := f.pickColumn(rng, tbl, used); ok {
			used[c.ID] = true
			t.preds = append(t.preds, predClass{
				col: c, op: workload.Between, sel: 0.3 + 0.7*rng.Float64(),
			})
		}
	}
	// Wide projection or a coarse roll-up over most of the table's rows.
	if rng.Float64() < 0.5 {
		nSel := 6 + rng.Intn(8)
		for i := 0; i < nSel; i++ {
			if c, ok := f.pickColumn(rng, tbl, used); ok {
				used[c.ID] = true
				t.selCols = append(t.selCols, c.ID)
			}
		}
	} else {
		if c, ok := f.pickColumn(rng, tbl, used); ok && c.Cardinality <= 10_000 {
			used[c.ID] = true
			t.groupBy = append(t.groupBy, c.ID)
			t.selCols = append(t.selCols, c.ID)
		}
		t.aggs = append(t.aggs, workload.Agg{Fn: workload.Count, Col: -1})
		if c, ok := f.pickColumn(rng, tbl, used); ok {
			used[c.ID] = true
			t.aggs = append(t.aggs, workload.Agg{Fn: workload.Sum, Col: c.ID})
		}
	}
	if len(t.selCols) == 0 && len(t.aggs) == 0 {
		if c, ok := f.pickColumn(rng, tbl, used); ok {
			t.selCols = append(t.selCols, c.ID)
		}
	}
	return t
}

// hotPoolSize bounds the per-table column pool that drift mutations draw
// from. Real workload drift is structured: new query variants reach for the
// same hot attributes the rest of the workload already uses, not arbitrary
// columns. This concentration is what makes robust hedging possible at all —
// for both the paper's CliffGuard and this reproduction, a design can only
// guard against drift whose directions recur.
const hotPoolSize = 16

// pickHotColumn draws a flip target from the table's hot pool,
// popularity-weighted, excluding used columns.
func (f *templateFactory) pickHotColumn(rng *rand.Rand, t *schema.Table, used map[int]bool) (schema.Column, bool) {
	pops := f.popularity[t.Name]
	idxs := make([]int, len(t.Columns))
	for i := range idxs {
		idxs[i] = i
	}
	sort.SliceStable(idxs, func(a, b int) bool { return pops[idxs[a]] > pops[idxs[b]] })
	if len(idxs) > hotPoolSize {
		idxs = idxs[:hotPoolSize]
	}
	// Uniform within the pool: templates are built with zipf-weighted
	// popularity (so exact-fit designs concentrate on the head), while drift
	// reaches the whole pool — the mid-entropy regime where hedged designs
	// pay off and exact-fit ones do not.
	free := idxs[:0]
	for _, i := range idxs {
		if !used[t.Columns[i].ID] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return schema.Column{}, false
	}
	return t.Columns[free[rng.Intn(len(free))]], true
}

// predPoolSize bounds the per-table pool of filter columns. Analytical
// workloads filter on a small set of dimensional attributes (dates, regions,
// categories), even as the selected measures drift more broadly; both
// template construction and drift draw predicates from this pool.
const predPoolSize = 6

// pickPredColumn draws a filter column: one of the table's predPoolSize most
// popular columns with enough cardinality (>= 100) to filter selectively.
func (f *templateFactory) pickPredColumn(rng *rand.Rand, t *schema.Table, used map[int]bool) (schema.Column, bool) {
	pops := f.popularity[t.Name]
	idxs := make([]int, 0, len(t.Columns))
	for i, c := range t.Columns {
		if c.Cardinality >= 100 {
			idxs = append(idxs, i)
		}
	}
	sort.SliceStable(idxs, func(a, b int) bool { return pops[idxs[a]] > pops[idxs[b]] })
	if len(idxs) > predPoolSize {
		idxs = idxs[:predPoolSize]
	}
	free := idxs[:0]
	for _, i := range idxs {
		if !used[t.Columns[i].ID] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return schema.Column{}, false
	}
	return t.Columns[free[rng.Intn(len(free))]], true
}

// mutate spawns a replacement template from a retiring one by flipping a few
// columns. Replacements stay structurally close to their ancestors (small
// Hamming distance), which is what keeps delta_euclidean small even under
// heavy template churn — the drift signature of the paper's R1 workload.
func (f *templateFactory) mutate(rng *rand.Rand, old *template, selective bool) *template {
	tbl, _ := f.schema.Table(old.table)
	t := &template{
		id:      f.nextID,
		table:   old.table,
		selCols: append([]int(nil), old.selCols...),
		aggs:    append([]workload.Agg(nil), old.aggs...),
		preds:   append([]predClass(nil), old.preds...),
		groupBy: append([]int(nil), old.groupBy...),
		orderBy: append([]workload.OrderCol(nil), old.orderBy...),
		limit:   old.limit,
	}
	f.nextID++
	used := make(map[int]bool)
	for _, c := range t.selCols {
		used[c] = true
	}
	for _, p := range t.preds {
		used[p.col.ID] = true
	}
	for _, c := range t.groupBy {
		used[c] = true
	}

	flips := 1 + rng.Intn(2)
	for i := 0; i < flips; i++ {
		// Drift is mostly about which measures and groupings a query touches;
		// its filter columns are far more stable (they are the dimensional
		// attributes dashboards pivot on).
		var kind int
		switch r := rng.Float64(); {
		case r < 0.26:
			kind = 0 // swap a select column
		case r < 0.48:
			kind = 1 // add a select column
		case r < 0.60:
			kind = 2 // move a predicate
		case r < 0.68:
			kind = 3 // add a predicate
		case r < 0.85:
			kind = 4 // swap a group-by column
		default:
			kind = 5 // swap an aggregated measure
		}
		switch kind {
		case 0: // swap a select column
			if len(t.selCols) > 0 {
				if c, ok := f.pickHotColumn(rng, tbl, used); ok {
					idx := rng.Intn(len(t.selCols))
					delete(used, t.selCols[idx])
					t.selCols[idx] = c.ID
					used[c.ID] = true
				}
			}
		case 1: // add a select column
			if c, ok := f.pickHotColumn(rng, tbl, used); ok {
				t.selCols = append(t.selCols, c.ID)
				used[c.ID] = true
			}
		case 2: // move a predicate to another pool column
			if len(t.preds) > 0 {
				if c, ok := f.pickFlipPredColumn(rng, tbl, used, selective); ok {
					idx := rng.Intn(len(t.preds))
					delete(used, t.preds[idx].col.ID)
					t.preds[idx] = f.flipPred(rng, c, selective)
					used[c.ID] = true
				}
			}
		case 3: // add a predicate
			if len(t.preds) < 4 {
				if c, ok := f.pickFlipPredColumn(rng, tbl, used, selective); ok {
					t.preds = append(t.preds, f.flipPred(rng, c, selective))
					used[c.ID] = true
				}
			}
		case 4: // swap a group-by column
			if len(t.groupBy) > 0 {
				if c, ok := f.pickHotColumn(rng, tbl, used); ok && c.Cardinality <= 100_000 {
					idx := rng.Intn(len(t.groupBy))
					// Keep selCols in sync for grouped queries.
					for si, sc := range t.selCols {
						if sc == t.groupBy[idx] {
							t.selCols[si] = c.ID
						}
					}
					delete(used, t.groupBy[idx])
					t.groupBy[idx] = c.ID
					used[c.ID] = true
				}
			}
		case 5: // swap an aggregated measure (dashboards change metrics too)
			for ai, a := range t.aggs {
				if a.Col < 0 {
					continue
				}
				if c, ok := f.pickHotColumn(rng, tbl, used); ok {
					delete(used, a.Col)
					t.aggs[ai].Col = c.ID
					used[c.ID] = true
				}
				break
			}
		}
	}
	if len(t.selCols) == 0 && len(t.aggs) == 0 {
		if c, ok := f.pickHotColumn(rng, tbl, used); ok {
			t.selCols = append(t.selCols, c.ID)
		}
	}
	return t
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// pickFlipPredColumn chooses the column for a predicate flip: designable
// templates filter on the predicate pool; broad templates filter loosely on
// arbitrary columns.
func (f *templateFactory) pickFlipPredColumn(rng *rand.Rand, tbl *schema.Table, used map[int]bool, selective bool) (schema.Column, bool) {
	if selective {
		return f.pickPredColumn(rng, tbl, used)
	}
	return f.pickColumn(rng, tbl, used)
}

// flipPred builds the predicate for a flip. Broad templates only ever gain
// weak range filters — a broad reporting query never turns into a selective
// (designable) one just by drifting.
func (f *templateFactory) flipPred(rng *rand.Rand, c schema.Column, selective bool) predClass {
	if !selective {
		return predClass{col: c, op: workload.Between, sel: 0.3 + 0.7*rng.Float64()}
	}
	pc := predClass{col: c}
	if c.Cardinality >= 100 && rng.Float64() < 0.7 {
		pc.op, pc.sel = workload.Eq, 1/float64(maxI64(c.Cardinality, 2))
	} else {
		pc.op, pc.sel = workload.Between, 0.001*pow(100, rng.Float64())
	}
	return pc
}
