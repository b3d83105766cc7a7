package sample

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Mutator is the default QuerySource: it perturbs templates drawn from W0 by
// adding and removing columns within the same table. This models the paper's
// uncertainty structure — future queries resemble past ones but reference
// drifted column subsets — without using any knowledge of the actual future
// workload.
//
// Candidates is safe for concurrent calls with distinct rng instances; the
// popularity prior derived from w0 is cached per workload identity behind a
// mutex, so the repeated operand of a neighborhood (always W0) pays the
// O(items × columns) prior construction once rather than once per draw.
type Mutator struct {
	Schema *schema.Schema
	// MaxFlips bounds how many columns a single mutation adds/removes
	// (default 5).
	MaxFlips int

	mu     sync.Mutex
	popKey popCacheKey
	popVal *popModel
}

// popCacheKey identifies a workload for popularity-prior caching; length and
// total weight guard against in-place item mutation after a Clone.
type popCacheKey struct {
	w     *workload.Workload
	n     int
	total float64
}

// popModel is the popularity prior for one workload: a cumulative weighted
// column sampler per schema table. Immutable once built.
type popModel struct {
	byTable map[string]*popPicker
}

// popPicker draws a column of one table with probability proportional to its
// (smoothed) popularity, via one rng.Float64 and a binary search — the same
// distribution and rng consumption as the historical linear scan.
type popPicker struct {
	cols  []schema.Column
	cum   []float64
	total float64
}

func (p *popPicker) pick(rng *rand.Rand) schema.Column {
	r := rng.Float64() * p.total
	i := sort.SearchFloat64s(p.cum, r)
	if i >= len(p.cols) {
		i = len(p.cols) - 1
	}
	return p.cols[i]
}

// popModelFor returns the cached popularity model for w0, whose total
// weight is total, building it on first use. Single-entry cache: the sampler
// hammers one W0 at a time, and a racing rebuild is deterministic, so either
// instance is correct.
func (m *Mutator) popModelFor(w0 *workload.Workload, total float64) *popModel {
	key := popCacheKey{w: w0, n: w0.Len(), total: total}
	m.mu.Lock()
	if m.popVal != nil && m.popKey == key {
		v := m.popVal
		m.mu.Unlock()
		return v
	}
	m.mu.Unlock()

	pop := columnPopularity(w0)
	model := &popModel{byTable: make(map[string]*popPicker)}
	for _, tbl := range m.Schema.Tables() {
		var maxW float64
		for _, c := range tbl.Columns {
			if w := pop[c.ID]; w > maxW {
				maxW = w
			}
		}
		// Additive smoothing keeps cold columns reachable (same constants as
		// the historical pickByPopularity).
		smoothing := maxW*0.1 + 1e-9
		p := &popPicker{cols: tbl.Columns, cum: make([]float64, len(tbl.Columns))}
		for i, c := range tbl.Columns {
			p.total += pop[c.ID] + smoothing
			p.cum[i] = p.total
		}
		model.byTable[tbl.Name] = p
	}

	m.mu.Lock()
	m.popKey, m.popVal = key, model
	m.mu.Unlock()
	return model
}

// NewMutator returns a mutator over the given schema.
func NewMutator(s *schema.Schema) *Mutator { return &Mutator{Schema: s, MaxFlips: 2} }

// Candidates implements QuerySource by mutating randomly chosen (weight-
// proportional) queries of w0. Mutations pick replacement columns in
// proportion to how often each column appears across w0 — the workload's own
// hot columns are where drift is most likely to land, and no knowledge of
// the actual future is used.
func (m *Mutator) Candidates(rng *rand.Rand, w0 *workload.Workload, k int) []*workload.Query {
	if w0.Len() == 0 || k <= 0 {
		return nil
	}
	total := w0.TotalWeight()
	model := m.popModelFor(w0, total)
	out := make([]*workload.Query, 0, k)
	for i := 0; i < k; i++ {
		base := m.pick(rng, w0, total)
		if base == nil || base.Spec == nil {
			continue
		}
		if q := m.mutateWith(rng, base, model); q != nil {
			out = append(out, q)
		}
	}
	return out
}

// columnPopularity returns a flattened (square-root) weighted frequency of
// each column across the workload's queries. The flattening matters: drift
// reaches warm columns, not just the very hottest ones, so the perturbation
// prior should not mirror the workload's frequency skew exactly.
func columnPopularity(w0 *workload.Workload) map[int]float64 {
	pop := make(map[int]float64)
	for _, it := range w0.Items {
		for _, c := range it.Q.Columns().IDs() {
			pop[c] += it.Weight
		}
	}
	for c, w := range pop {
		pop[c] = math.Sqrt(w)
	}
	return pop
}

// pick draws a query from w0, whose total weight is total, with
// probability proportional to weight.
func (m *Mutator) pick(rng *rand.Rand, w0 *workload.Workload, total float64) *workload.Query {
	if total <= 0 {
		return nil
	}
	r := rng.Float64() * total
	for _, it := range w0.Items {
		r -= it.Weight
		if r <= 0 {
			return it.Q
		}
	}
	return w0.Items[len(w0.Items)-1].Q
}

// Mutate returns a perturbed copy of q: its spec with 1..MaxFlips column
// flips applied across the select/where/group-by clauses, staying within the
// query's anchor table. Replacement columns are drawn uniformly; Candidates
// uses the popularity-weighted variant. Returns nil if the base query's
// table is unknown.
func (m *Mutator) Mutate(rng *rand.Rand, q *workload.Query) *workload.Query {
	return m.mutateWith(rng, q, nil)
}

// mutateWith is Mutate with an optional column-popularity prior.
func (m *Mutator) mutateWith(rng *rand.Rand, q *workload.Query, model *popModel) *workload.Query {
	tbl, ok := m.Schema.Table(q.Spec.Table)
	if !ok {
		return nil
	}
	spec := cloneSpec(q.Spec)
	maxFlips := m.MaxFlips
	if maxFlips <= 0 {
		maxFlips = 5
	}
	flips := 1 + rng.Intn(maxFlips)
	for i := 0; i < flips; i++ {
		m.flip(rng, spec, tbl, model)
	}
	if len(spec.SelectCols) == 0 && len(spec.Aggs) == 0 {
		// A query must select something; restore one projected column.
		spec.SelectCols = append(spec.SelectCols, tbl.Columns[rng.Intn(len(tbl.Columns))].ID)
	}
	nq := workload.FromSpec(q.ID, q.Timestamp, spec)
	return nq
}

// flip applies one random structural mutation to the spec.
func (m *Mutator) flip(rng *rand.Rand, spec *workload.Spec, tbl *schema.Table, model *popModel) {
	var col schema.Column
	if model != nil {
		if p := model.byTable[tbl.Name]; p != nil {
			col = p.pick(rng)
		} else {
			col = tbl.Columns[rng.Intn(len(tbl.Columns))]
		}
	} else {
		col = tbl.Columns[rng.Intn(len(tbl.Columns))]
	}
	switch rng.Intn(7) {
	case 0: // add a select column
		if !containsInt(spec.SelectCols, col.ID) {
			spec.SelectCols = append(spec.SelectCols, col.ID)
		}
	case 1: // drop a select column
		if len(spec.SelectCols) > 1 {
			spec.SelectCols = removeAt(spec.SelectCols, rng.Intn(len(spec.SelectCols)))
		}
	case 2: // add a predicate with a random point/range filter
		if !predOn(spec.Preds, col.ID) {
			spec.Preds = append(spec.Preds, randomPred(rng, col))
		}
	case 3: // drop a predicate
		if len(spec.Preds) > 0 {
			i := rng.Intn(len(spec.Preds))
			spec.Preds = append(spec.Preds[:i], spec.Preds[i+1:]...)
		}
	case 4: // add a group-by column
		if !containsInt(spec.GroupBy, col.ID) {
			spec.GroupBy = append(spec.GroupBy, col.ID)
			if len(spec.Aggs) == 0 {
				spec.Aggs = append(spec.Aggs, workload.Agg{Fn: workload.Count, Col: -1})
			}
		}
	case 5: // drop a group-by column
		if len(spec.GroupBy) > 0 {
			spec.GroupBy = removeAt(spec.GroupBy, rng.Intn(len(spec.GroupBy)))
		}
	case 6: // re-target an aggregated measure
		for ai, a := range spec.Aggs {
			if a.Col < 0 {
				continue
			}
			spec.Aggs[ai].Col = col.ID
			break
		}
	}
}

// randomPred builds a filter on col with selectivity drawn log-uniformly in
// [1/card, ~0.2], mirroring the filter shapes the workload generators emit.
func randomPred(rng *rand.Rand, col schema.Column) workload.Pred {
	card := col.Cardinality
	if card < 2 {
		card = 2
	}
	if rng.Intn(2) == 0 {
		v := rng.Int63n(card)
		return workload.Pred{Col: col.ID, Op: workload.Eq, Lo: v, Hi: v, Sel: 1 / float64(card)}
	}
	span := 1 + rng.Int63n(maxI64(card/5, 1))
	lo := rng.Int63n(maxI64(card-span, 1))
	return workload.Pred{Col: col.ID, Op: workload.Between, Lo: lo, Hi: lo + span - 1,
		Sel: float64(span) / float64(card)}
}

func cloneSpec(s *workload.Spec) *workload.Spec {
	out := &workload.Spec{Table: s.Table, Limit: s.Limit}
	out.SelectCols = append([]int(nil), s.SelectCols...)
	out.Aggs = append([]workload.Agg(nil), s.Aggs...)
	out.Preds = append([]workload.Pred(nil), s.Preds...)
	out.GroupBy = append([]int(nil), s.GroupBy...)
	out.OrderBy = append([]workload.OrderCol(nil), s.OrderBy...)
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func predOn(preds []workload.Pred, col int) bool {
	for _, p := range preds {
		if p.Col == col {
			return true
		}
	}
	return false
}

func removeAt(s []int, i int) []int {
	return append(s[:i], s[i+1:]...)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
