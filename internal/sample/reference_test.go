package sample

import (
	"math"
	"math/rand"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// This file keeps the mutator as it was before mutants were built in
// scratch: every mutant cloned its base Spec and went through FromSpec, and
// the popularity prior was a map per column and a map of pickers per table
// name. TestMutantsMatchReference and FuzzMutantsMatchReference diff the
// scratch mutator against it draw by draw.

// refPopModel is the map-keyed popularity prior.
type refPopModel struct {
	byTable map[string]*popPicker
}

// refPopModelFor builds the prior for w0 as popModelFor did, without its
// single-entry cache.
func (m *Mutator) refPopModelFor(w0 *workload.Workload) *refPopModel {
	pop := refColumnPopularity(w0)
	model := &refPopModel{byTable: make(map[string]*popPicker)}
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
	return model
}

func refColumnPopularity(w0 *workload.Workload) map[int]float64 {
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

// refCandidates is Candidates over the reference mutator.
func (m *Mutator) refCandidates(rng *rand.Rand, w0 *workload.Workload, k int) []*workload.Query {
	if w0.Len() == 0 || k <= 0 {
		return nil
	}
	total := w0.TotalWeight()
	model := m.refPopModelFor(w0)
	out := make([]*workload.Query, 0, k)
	for i := 0; i < k; i++ {
		base := m.pick(rng, w0, total)
		if base == nil || base.Spec == nil {
			continue
		}
		if q := m.refMutateWith(rng, base, model); q != nil {
			out = append(out, q)
		}
	}
	return out
}

// refMutateWith is Mutate with an optional column-popularity prior.
func (m *Mutator) refMutateWith(rng *rand.Rand, q *workload.Query, model *refPopModel) *workload.Query {
	tbl, ok := m.Schema.Table(q.Spec.Table)
	if !ok {
		return nil
	}
	spec := refCloneSpec(q.Spec)
	maxFlips := m.MaxFlips
	if maxFlips <= 0 {
		maxFlips = 5
	}
	flips := 1 + rng.Intn(maxFlips)
	for i := 0; i < flips; i++ {
		m.refFlip(rng, spec, tbl, model)
	}
	if len(spec.SelectCols) == 0 && len(spec.Aggs) == 0 {
		// A query must select something; restore one projected column.
		spec.SelectCols = append(spec.SelectCols, tbl.Columns[rng.Intn(len(tbl.Columns))].ID)
	}
	nq := workload.FromSpec(q.ID, q.Timestamp, spec)
	return nq
}

// refFlip applies one random structural mutation to the spec.
func (m *Mutator) refFlip(rng *rand.Rand, spec *workload.Spec, tbl *schema.Table, model *refPopModel) {
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

func refCloneSpec(s *workload.Spec) *workload.Spec {
	out := &workload.Spec{Table: s.Table, Limit: s.Limit}
	out.SelectCols = append([]int(nil), s.SelectCols...)
	out.Aggs = append([]workload.Agg(nil), s.Aggs...)
	out.Preds = append([]workload.Pred(nil), s.Preds...)
	out.GroupBy = append([]int(nil), s.GroupBy...)
	out.OrderBy = append([]workload.OrderCol(nil), s.OrderBy...)
	return out
}
