package vertsim

import (
	"context"
	"slices"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Designer is the DBD-style nominal designer (the paper's ExistingDesigner
// for Vertica): it proposes candidate sorted projections derived from the
// input workload's query templates and greedily selects the best
// benefit-per-byte set within the storage budget.
//
// Like its commercial counterpart it is purely nominal — candidates come
// only from queries it was shown, so designs overfit the input workload and
// fall off a cliff when future queries reference drifted column sets. That
// is exactly the behaviour CliffGuard exists to repair.
type Designer struct {
	DB     *DB
	Budget int64
	// MaxSortCols caps the sort-key length of generated candidates.
	MaxSortCols int
	// MaxCandidates caps the candidate pool (highest-weight templates win).
	MaxCandidates int
}

// NewDesigner returns a nominal designer with paper-scale defaults.
func NewDesigner(db *DB, budget int64) *Designer {
	return &Designer{DB: db, Budget: budget, MaxSortCols: 4, MaxCandidates: 640}
}

// Name implements designer.Designer.
func (d *Designer) Name() string { return "VerticaDBD" }

// Design implements designer.Designer: compress the workload to templates,
// generate per-template and merged candidates, then greedy-select.
func (d *Designer) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := designer.CompressByTemplate(w)
	cands, _ := d.generator(false).candidates(cw)
	if d.DB.met != nil {
		d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return designer.GreedySelect(ctx, d.DB, cw, cands, d.Budget)
}

// Session implements designer.SessionDesigner: a designer for the calls of
// one robust run that keys each query's template (designer.Compressor),
// derives its candidates, builds each projection and costs each pair cell
// once per run (designer.PairRows).
func (d *Designer) Session() designer.Designer {
	return &session{g: d.generator(true), rows: designer.NewPairRows(d.DB), c: designer.NewCompressor(true)}
}

// session is a Designer's run-scoped form. Its Design is the Designer's,
// with template numbers, derivations, projections and pair cells kept
// across calls.
type session struct {
	g    *generator
	rows *designer.PairRows
	c    *designer.Compressor
}

func (s *session) Name() string { return s.g.d.Name() }

func (s *session) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := s.c.Compress(w)
	cands, slots := s.g.candidates(cw)
	if s.g.d.DB.met != nil {
		s.g.d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return s.rows.GreedySelect(ctx, cw, cands, slots, s.g.d.Budget)
}

// weightedQuery pairs a representative query's derivation with its template
// weight.
type weightedQuery struct {
	*derivation
	weight float64
}

// derivation is what candidate generation derives from one query alone,
// whatever workload it appears in: the query's columns, its sort key and its
// tailored projections (nil where NewProjection rejects them), with their
// slots in the generator's interner.
type derivation struct {
	q       *workload.Query
	cols    workload.ColSet
	sortKey []workload.OrderCol // sortKey(spec, false)
	primary *Projection
	// topN is the ORDER BY-led projection of a pure top-N query, else nil.
	topN                  *Projection
	primarySlot, topNSlot int32
}

// generator generates candidate pools: for one call of the plain designer,
// or for every call of a session, which keeps each query's derivation and
// every projection it builds (interned by key, so a projection built once
// is handed back on later calls) together with its reused scratch.
type generator struct {
	d       *Designer
	derived map[*workload.Query]*derivation // nil: derive per call
	in      *designer.Interner

	// Scratch, reused across a session's calls.
	wqs      []weightedQuery
	clusters []cluster
	out      []designer.Structure
	slots    []int32
	weights  []colWeight
	top      [4][]int // topCols results live at once
	sortCols []workload.OrderCol
	dedup    []workload.OrderCol
	key      []byte
}

func (d *Designer) generator(session bool) *generator {
	g := &generator{d: d, in: designer.NewInterner()}
	if session {
		g.derived = map[*workload.Query]*derivation{}
	}
	return g
}

// cluster is one family of overlapping templates of a table: the union of
// their columns and the accumulated weight of each predicate and group-by
// column, in first-seen order. A cluster holds at most maxClusterCols
// columns, so a linear scan finds a column's weight.
type cluster struct {
	table    string
	cols     workload.ColSet // the generator's own words, rebuilt per call
	members  int
	weight   float64
	predWt   []colWeight // pred column -> accumulated weight (eq boosted)
	groupWt  []colWeight
	heaviest *derivation
	second   *derivation
}

// colWeight is one column's accumulated weight in a cluster.
type colWeight struct {
	col int
	w   float64
}

// addWeight adds w to col's weight in ws, appending col at weight 0 first
// when it is new, so that every weight is the same sum, in the same order,
// as a map entry accumulated with +=.
func addWeight(ws []colWeight, col int, w float64) []colWeight {
	i := 0
	for i < len(ws) && ws[i].col != col {
		i++
	}
	if i == len(ws) {
		ws = append(ws, colWeight{col: col})
	}
	ws[i].w += w
	return ws
}

// derive returns q's derivation, or nil when the cost model cannot cost q;
// a session keeps both answers across calls.
func (g *generator) derive(q *workload.Query) *derivation {
	if dv, ok := g.derived[q]; ok {
		return dv
	}
	var dv *derivation
	if _, err := g.d.DB.prepare(q); err == nil {
		spec := q.Spec
		cols := spec.ReferencedCols()
		dv = &derivation{q: q, cols: q.Columns(), sortKey: g.d.sortKey(spec, false), primarySlot: -1, topNSlot: -1}
		if p, err := NewProjection(g.d.DB.Schema, spec.Table, cols, dv.sortKey); err == nil {
			dv.primary, dv.primarySlot = g.intern(p)
		}
		if len(spec.OrderBy) > 0 && len(spec.GroupBy) == 0 {
			if p, err := NewProjection(g.d.DB.Schema, spec.Table, cols, g.d.sortKey(spec, true)); err == nil {
				dv.topN, dv.topNSlot = g.intern(p)
			}
		}
	}
	if g.derived != nil {
		g.derived[q] = dv
	}
	return dv
}

// intern returns the projection interned under p's key and its slot.
func (g *generator) intern(p *Projection) (*Projection, int32) {
	s, x := g.in.Add(p)
	return s.(*Projection), x
}

// project returns NewProjection(anchor, cols, sortCols), or nil where it
// fails, with its slot. A projection of the same key built before is handed
// back without a build: the key (anchor, columns and deduplicated sort key)
// determines the projection.
func (g *generator) project(anchor string, cols workload.ColSet, sortCols []workload.OrderCol) (*Projection, int32) {
	dedup := g.dedup[:0]
	for _, oc := range sortCols {
		if !cols.Has(oc.Col) {
			return nil, -1
		}
		if !hasSortCol(dedup, oc.Col) {
			dedup = append(dedup, oc)
		}
	}
	g.dedup = dedup
	g.key = appendProjKey(g.key[:0], anchor, cols, dedup)
	if s, x := g.in.Lookup(g.key); x >= 0 {
		return s.(*Projection), x
	}
	p, err := NewProjection(g.d.DB.Schema, anchor, cols.IDs(), sortCols)
	if err != nil {
		return nil, -1
	}
	return g.intern(p)
}

// Candidates generates the candidate projection pool for a workload: one or
// two tailored projections per template plus merged projections for
// strongly overlapping template pairs.
func (d *Designer) Candidates(w *workload.Workload) []designer.Structure {
	cands, _ := d.generator(false).candidates(designer.CompressByTemplate(w))
	return cands
}

// candidates is Candidates over an already template-compressed workload,
// with each candidate's slot in g's interner. A session's returned slices
// are reused by its next call.
func (g *generator) candidates(cw *workload.Workload) ([]designer.Structure, []int32) {
	d := g.d
	wqs := g.wqs[:0]
	for _, it := range cw.Items {
		if dv := g.derive(it.Q); dv != nil {
			wqs = append(wqs, weightedQuery{dv, it.Weight})
		}
	}
	slices.SortStableFunc(wqs, func(a, b weightedQuery) int {
		switch {
		case a.weight > b.weight:
			return -1
		case a.weight < b.weight:
			return 1
		}
		return 0
	})
	g.wqs = wqs
	maxCand := d.MaxCandidates
	if maxCand <= 0 {
		maxCand = 640
	}

	out, slots := g.out[:0], g.slots[:0]
	g.in.Begin()
	put := func(p *Projection, slot int32) {
		if p == nil || !g.in.Mark(slot) {
			return
		}
		out = append(out, p)
		slots = append(slots, slot)
	}

	// Per-template candidates take at most half the pool: the cluster-union
	// candidates below are the ones that serve many templates at once, and
	// they must never be crowded out on template-rich (e.g. perturbed)
	// workloads.
	perTemplateCap := maxCand / 2
	for _, wq := range wqs {
		if len(out) >= perTemplateCap {
			break
		}
		// Primary: sort by most-selective predicates, then group-by.
		put(wq.primary, wq.primarySlot)
		// Secondary for pure top-N queries: ORDER BY-leading sort order.
		put(wq.topN, wq.topNSlot)
	}

	// Merged candidates: agglomerate overlapping templates of the same table
	// into cluster-union projections. A cluster projection covers every
	// member (and, importantly, small variations of them), which is how the
	// designer stretches the budget across similar queries — and how a
	// workload that contains perturbed variants (CliffGuard's moved
	// workloads) turns into wider, drift-tolerant projections.
	clusters := g.clusters[:0]
	for _, wq := range wqs {
		cols := wq.cols
		best := -1
		bestJ := 0.0
		for ci := range clusters {
			cl := &clusters[ci]
			if cl.table != wq.q.Spec.Table {
				continue
			}
			if cl.cols.UnionLen(cols) > maxClusterCols {
				continue
			}
			// Containment rather than symmetric Jaccard: a template joins a
			// cluster when it is mostly inside the cluster's union already.
			// Perturbed variants of a template are ~90% inside its cluster, so
			// they keep joining as the union widens; organically distinct
			// templates (sharing only their hot columns, typically 50-75%
			// containment) stay out. This mirrors how commercial designers
			// merge only near-duplicate queries.
			j := float64(cl.cols.IntersectLen(cols)) / float64(cols.Len())
			if j >= 0.8 && j > bestJ {
				best, bestJ = ci, j
			}
		}
		var cl *cluster
		if best < 0 {
			// A new cluster reuses the storage of a previous call's.
			clusters = slices.Grow(clusters, 1)[:len(clusters)+1]
			cl = &clusters[len(clusters)-1]
			*cl = cluster{table: wq.q.Spec.Table, cols: cl.cols, predWt: cl.predWt[:0], groupWt: cl.groupWt[:0]}
			cl.cols.SetUnion(cols, workload.ColSet{})
		} else {
			cl = &clusters[best]
			cl.cols.SetUnion(cl.cols, cols)
		}
		cl.members++
		cl.weight += wq.weight
		// wqs is sorted by weight, so the first two members to join are the
		// cluster's heaviest.
		if cl.heaviest == nil {
			cl.heaviest = wq.derivation
		} else if cl.second == nil {
			cl.second = wq.derivation
		}
		for _, p := range wq.q.Spec.Preds {
			boost := 1.0
			if p.Op == workload.Eq {
				boost = 2.0 // equalities extend the usable sort prefix
			}
			cl.predWt = addWeight(cl.predWt, p.Col, wq.weight*boost/(p.Sel+1e-6))
		}
		for _, gc := range wq.q.Spec.GroupBy {
			cl.groupWt = addWeight(cl.groupWt, gc, wq.weight)
		}
	}
	g.clusters = clusters
	maxSort := d.maxSortCols()
	for ci := range clusters {
		cl := &clusters[ci]
		// Only genuine families — three or more near-duplicate templates —
		// earn speculative union projections.
		if cl.members < 3 || len(out) >= maxCand {
			continue
		}
		// Sort key: the cluster's most valuable predicate columns (weight x
		// selectivity), then shared group-by columns.
		key := g.topCols(0, cl.predWt, maxSort)
		key = append(key, g.topCols(1, cl.groupWt, maxSort-len(key))...)
		sortCols := g.sortCols[:0]
		for _, c := range key {
			sortCols = append(sortCols, workload.OrderCol{Col: c})
		}
		g.sortCols = sortCols
		put(g.project(cl.table, cl.cols, sortCols))
		// Variants sorted for the heaviest members, preserving their ideal
		// plans inside the wider projection — Vertica's classic trick of
		// keeping several projections that differ only in sort order.
		if cl.heaviest != nil && len(out) < maxCand {
			put(g.project(cl.table, cl.cols, cl.heaviest.sortKey))
		}
		if cl.second != nil && len(out) < maxCand {
			put(g.project(cl.table, cl.cols, cl.second.sortKey))
		}
		// One variant per popular predicate column as the leading sort key:
		// members (and near-variants) filtering on that column get a pruned
		// scan no matter which other predicates they carry.
		base := g.topCols(2, cl.predWt, maxSort)
		for _, lead := range g.topCols(3, cl.predWt, 8) {
			if len(out) >= maxCand {
				break
			}
			variant := append(g.sortCols[:0], workload.OrderCol{Col: lead})
			for _, c := range base {
				if c != lead && len(variant) < maxSort {
					variant = append(variant, workload.OrderCol{Col: c})
				}
			}
			g.sortCols = variant
			put(g.project(cl.table, cl.cols, variant))
		}
	}
	g.out, g.slots = out, slots
	return out, slots
}

// maxClusterCols caps a cluster's column union.
const maxClusterCols = 22

func (d *Designer) maxSortCols() int {
	if d.MaxSortCols > 0 {
		return d.MaxSortCols
	}
	return 4
}

// topCols returns up to k columns of ws by descending weight (deterministic
// tie-break on column ID), in the generator's result buffer i.
func (g *generator) topCols(i int, ws []colWeight, k int) []int {
	top := g.top[i][:0]
	if k <= 0 {
		return top
	}
	// A cluster has at most maxClusterCols weighted columns: an insertion
	// sort of a copy is cheap.
	buf := append(g.weights[:0], ws...)
	for a := 1; a < len(buf); a++ {
		for b := a; b > 0 && heavier(buf[b], buf[b-1]); b-- {
			buf[b], buf[b-1] = buf[b-1], buf[b]
		}
	}
	g.weights = buf
	for _, cw := range buf[:min(k, len(buf))] {
		top = append(top, cw.col)
	}
	g.top[i] = top
	return top
}

// heavier orders column weights by descending weight, then ascending ID.
func heavier(a, b colWeight) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	return a.col < b.col
}

// sortKey derives a candidate sort order from a query spec. With
// orderFirst, the query's ORDER BY keys lead; otherwise predicates lead,
// most selective first (equalities before the terminating range), followed
// by group-by columns.
func (d *Designer) sortKey(spec *workload.Spec, orderFirst bool) []workload.OrderCol {
	maxLen := d.MaxSortCols
	if maxLen <= 0 {
		maxLen = 4
	}
	key := make([]workload.OrderCol, 0, maxLen)
	push := func(oc workload.OrderCol) {
		if len(key) < maxLen && !hasSortCol(key, oc.Col) {
			key = append(key, oc)
		}
	}
	if orderFirst {
		for _, oc := range spec.OrderBy {
			push(oc)
		}
	}
	// Equality predicates first (they extend the usable prefix), then the
	// single most selective range predicate.
	preds := spec.SortPredsBySelectivity()
	for _, p := range preds {
		if p.Op == workload.Eq {
			push(workload.OrderCol{Col: p.Col})
		}
	}
	for _, p := range preds {
		if p.Op != workload.Eq {
			push(workload.OrderCol{Col: p.Col})
			break
		}
	}
	for _, c := range spec.GroupBy {
		push(workload.OrderCol{Col: c})
	}
	if !orderFirst {
		for _, oc := range spec.OrderBy {
			push(oc)
		}
	}
	return key
}
