package sample

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Mutator is the sampler's query source: it perturbs templates drawn from
// W0 by adding and removing columns within the same table. This models the paper's
// uncertainty structure — future queries resemble past ones but reference
// drifted column subsets — without using any knowledge of the actual future
// workload.
//
// Candidates is safe for concurrent calls with distinct rng instances (the
// parallel Neighborhood makes one call per in-flight draw) and retains no
// rng past the call; the popularity prior derived from w0 is cached per
// workload identity behind a mutex, so the repeated operand of a
// neighborhood (always W0) pays the O(items × columns) prior construction
// once rather than once per draw.
//
// Each call builds its mutants in pooled scratch (one scratch per
// concurrent call) and then builds the queries it returns in one batch
// (workload.FromDrafts), so a call allocates a fixed handful of arrays, not
// a Spec and clause sets per mutant.
type Mutator struct {
	Schema *schema.Schema
	// MaxFlips bounds how many columns a single mutation adds/removes
	// (default 5).
	MaxFlips int

	mu     sync.Mutex
	popKey popCacheKey
	popVal *popModel

	scratch sync.Pool // *mutantScratch
}

// popCacheKey identifies a workload for popularity-prior caching; length and
// total weight guard against in-place item mutation after a Clone.
type popCacheKey struct {
	w     *workload.Workload
	n     int
	total float64
}

// popModel is the popularity prior for one workload: a cumulative weighted
// column sampler per schema table, indexed by the table's ordinal
// (schema.Ordinal). Immutable once built.
type popModel struct {
	pickers []popPicker
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

	pop := columnPopularity(w0, m.Schema.NumColumns())
	tables := m.Schema.Tables()
	model := &popModel{pickers: make([]popPicker, len(tables))}
	cum := make([]float64, m.Schema.NumColumns())
	for ti, tbl := range tables {
		var maxW float64
		for _, c := range tbl.Columns {
			if w := pop[c.ID]; w > maxW {
				maxW = w
			}
		}
		// Additive smoothing keeps cold columns reachable (same constants as
		// the historical pickByPopularity).
		smoothing := maxW*0.1 + 1e-9
		n := len(tbl.Columns)
		p := &model.pickers[ti]
		p.cols, p.cum, cum = tbl.Columns, cum[:n:n], cum[n:]
		for i, c := range tbl.Columns {
			p.total += pop[c.ID] + smoothing
			p.cum[i] = p.total
		}
	}

	m.mu.Lock()
	m.popKey, m.popVal = key, model
	m.mu.Unlock()
	return model
}

// NewMutator returns a mutator over the given schema.
func NewMutator(s *schema.Schema) *Mutator { return &Mutator{Schema: s, MaxFlips: 2} }

// Candidates draws up to k candidate queries by mutating randomly chosen
// (weight-proportional) queries of w0, and returns, in draw order, those
// whose TemplateKey(workload.MaskSWGO) is not a key of known (every
// candidate when known is nil). Mutations pick replacement columns in
// proportion to how often each column appears across w0 — the workload's own
// hot columns are where drift is most likely to land, and no knowledge of
// the actual future is used. The known filter reads the scratch mutant, so
// only the survivors are built; it takes no rng draw.
func (m *Mutator) Candidates(rng *rand.Rand, w0 *workload.Workload, k int, known *workload.FrozenVector) []*workload.Query {
	if w0.Len() == 0 || k <= 0 {
		return nil
	}
	total := w0.TotalWeight()
	model := m.popModelFor(w0, total)
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	for i := 0; i < k; i++ {
		base := m.pick(rng, w0, total)
		if base == nil || base.Spec == nil {
			continue
		}
		if !m.mutate(rng, sc, base.Spec, model) {
			continue
		}
		if known != nil {
			sc.q.Refill(&sc.spec)
			sc.key = sc.q.AppendTemplateKey(sc.key[:0], workload.MaskSWGO)
			if known.HasKeyBytes(sc.key) {
				continue
			}
		}
		sc.stage(base)
	}
	return sc.build()
}

// mutantScratch is one call's working memory: the mutant being built, a
// query over it whose template key the filter reads, and the staged
// survivors, whose Spec slices point into the staging arrays until build
// copies them out.
type mutantScratch struct {
	spec workload.Spec
	q    workload.Query
	// made marks the clause slices of spec that a mutation of a cloned Spec
	// would leave non-nil: a clone by append is nil where the base is empty,
	// and only an append makes it non-nil. spec's own slices are reused, so
	// they are never nil; stage copies nil where made is unset.
	made   uint8
	key    []byte
	drafts []workload.Draft
	ints   []int
	aggs   []workload.Agg
	preds  []workload.Pred
	orders []workload.OrderCol
}

func (m *Mutator) getScratch() *mutantScratch {
	if sc, ok := m.scratch.Get().(*mutantScratch); ok {
		return sc
	}
	return &mutantScratch{}
}

// stage appends the current mutant, with base's ID and timestamp, to the
// survivors. A staging array that grows leaves the earlier survivors on the
// old array, whose contents stay as they were.
func (sc *mutantScratch) stage(base *workload.Query) {
	s := &sc.spec
	d := workload.Draft{ID: base.ID, Timestamp: base.Timestamp, Spec: workload.Spec{Table: s.Table, Limit: s.Limit}}
	d.Spec.SelectCols, sc.ints = stageSlice(sc.ints, s.SelectCols, sc.made&madeSelect != 0)
	d.Spec.Aggs, sc.aggs = stageSlice(sc.aggs, s.Aggs, sc.made&madeAggs != 0)
	d.Spec.Preds, sc.preds = stageSlice(sc.preds, s.Preds, sc.made&madePreds != 0)
	d.Spec.GroupBy, sc.ints = stageSlice(sc.ints, s.GroupBy, sc.made&madeGroupBy != 0)
	d.Spec.OrderBy, sc.orders = stageSlice(sc.orders, s.OrderBy, sc.made&madeOrderBy != 0)
	sc.drafts = append(sc.drafts, d)
}

// The bits of mutantScratch.made.
const (
	madeSelect uint8 = 1 << iota
	madeAggs
	madePreds
	madeGroupBy
	madeOrderBy
)

// stageSlice appends src to arena and returns the appended part, or nil
// when made is unset (src is then empty). An empty src that is made stages
// as an empty slice that is not nil.
func stageSlice[T any](arena, src []T, made bool) ([]T, []T) {
	switch {
	case !made:
		return nil, arena
	case len(src) == 0:
		return src[:0:0], arena
	}
	start := len(arena)
	arena = append(arena, src...)
	return arena[start:len(arena):len(arena)], arena
}

// build returns the staged survivors as queries and empties the staging
// arrays for the scratch's next call.
func (sc *mutantScratch) build() []*workload.Query {
	out := workload.FromDrafts(sc.drafts)
	clear(sc.drafts)
	sc.drafts = sc.drafts[:0]
	sc.ints, sc.aggs, sc.preds, sc.orders = sc.ints[:0], sc.aggs[:0], sc.preds[:0], sc.orders[:0]
	return out
}

// columnPopularity returns a flattened (square-root) weighted frequency of
// each column across the workload's queries, indexed by column ID over the
// schema's n columns. The flattening matters: drift reaches warm columns,
// not just the very hottest ones, so the perturbation prior should not
// mirror the workload's frequency skew exactly.
func columnPopularity(w0 *workload.Workload, n int) []float64 {
	pop := make([]float64, n)
	for _, it := range w0.Items {
		it.Q.EachRef(func(c int) bool {
			if c < n {
				pop[c] += it.Weight
			}
			return true
		})
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
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	if !m.mutate(rng, sc, q.Spec, nil) {
		return nil
	}
	sc.stage(q)
	return sc.build()[0]
}

// mutate builds a mutant of base in sc.spec, drawing replacement columns
// from model when it is not nil, and reports false (with no rng draw) when
// base's table is unknown. Its flips read and write only sc's reused
// slices, in the order and with the rng draws of a mutation of a cloned
// Spec.
func (m *Mutator) mutate(rng *rand.Rand, sc *mutantScratch, base *workload.Spec, model *popModel) bool {
	tbl, ok := m.Schema.Table(base.Table)
	if !ok {
		return false
	}
	s := &sc.spec
	*s = workload.Spec{
		Table:      base.Table,
		Limit:      base.Limit,
		SelectCols: append(s.SelectCols[:0], base.SelectCols...),
		Aggs:       append(s.Aggs[:0], base.Aggs...),
		Preds:      append(s.Preds[:0], base.Preds...),
		GroupBy:    append(s.GroupBy[:0], base.GroupBy...),
		OrderBy:    append(s.OrderBy[:0], base.OrderBy...),
	}
	sc.made = 0
	for bit, n := range [...]int{len(s.SelectCols), len(s.Aggs), len(s.Preds), len(s.GroupBy), len(s.OrderBy)} {
		if n > 0 {
			sc.made |= 1 << bit
		}
	}
	var p *popPicker
	if model != nil {
		if ti := m.Schema.Ordinal(tbl); ti >= 0 {
			p = &model.pickers[ti]
		}
	}
	maxFlips := m.MaxFlips
	if maxFlips <= 0 {
		maxFlips = 5
	}
	flips := 1 + rng.Intn(maxFlips)
	for i := 0; i < flips; i++ {
		sc.flip(rng, tbl, p)
	}
	if len(s.SelectCols) == 0 && len(s.Aggs) == 0 {
		// A query must select something; restore one projected column.
		s.SelectCols = append(s.SelectCols, tbl.Columns[rng.Intn(len(tbl.Columns))].ID)
		sc.made |= madeSelect
	}
	return true
}

// flip applies one random structural mutation to the scratch spec, drawing
// the column from p when it is not nil, else uniformly from tbl.
func (sc *mutantScratch) flip(rng *rand.Rand, tbl *schema.Table, p *popPicker) {
	spec := &sc.spec
	var col schema.Column
	if p != nil {
		col = p.pick(rng)
	} else {
		col = tbl.Columns[rng.Intn(len(tbl.Columns))]
	}
	switch rng.Intn(7) {
	case 0: // add a select column
		if !containsInt(spec.SelectCols, col.ID) {
			spec.SelectCols = append(spec.SelectCols, col.ID)
			sc.made |= madeSelect
		}
	case 1: // drop a select column
		if len(spec.SelectCols) > 1 {
			spec.SelectCols = removeAt(spec.SelectCols, rng.Intn(len(spec.SelectCols)))
		}
	case 2: // add a predicate with a random point/range filter
		if !predOn(spec.Preds, col.ID) {
			spec.Preds = append(spec.Preds, randomPred(rng, col))
			sc.made |= madePreds
		}
	case 3: // drop a predicate
		if len(spec.Preds) > 0 {
			i := rng.Intn(len(spec.Preds))
			spec.Preds = append(spec.Preds[:i], spec.Preds[i+1:]...)
		}
	case 4: // add a group-by column
		if !containsInt(spec.GroupBy, col.ID) {
			spec.GroupBy = append(spec.GroupBy, col.ID)
			sc.made |= madeGroupBy
			if len(spec.Aggs) == 0 {
				spec.Aggs = append(spec.Aggs, workload.Agg{Fn: workload.Count, Col: -1})
				sc.made |= madeAggs
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
