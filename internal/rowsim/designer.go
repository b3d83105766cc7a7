package rowsim

import (
	"context"
	"math"
	"slices"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Designer is the DBMS-X-style nominal designer: it selects secondary
// indices and aggregate materialized views within a storage budget. Before
// designing it applies workload compression — collapsing queries to
// templates, damping template weights, and dropping the rarest templates —
// the anti-overfitting heuristic the paper attributes to DBMS-X (Section
// 6.4: "several heuristics used in DBMS-X's designer (such as omitting
// workload details) that prevent it from overfitting its input workload").
type Designer struct {
	DB     *DB
	Budget int64
	// MaxKeyCols caps index key length.
	MaxKeyCols int
	// MaxCandidates caps the candidate pool.
	MaxCandidates int
}

// minTemplateShare is the fraction of total workload weight below which
// compression drops a template (0.2%).
const minTemplateShare = 0.002

// NewDesigner returns a nominal row-store designer with defaults.
func NewDesigner(db *DB, budget int64) *Designer {
	return &Designer{DB: db, Budget: budget, MaxKeyCols: 3, MaxCandidates: 512}
}

// Name implements designer.Designer.
func (d *Designer) Name() string { return "DBMS-X-Advisor" }

// Design implements designer.Designer.
func (d *Designer) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := d.Compress(w)
	cands, _ := d.generator(false).candidates(cw)
	if d.DB.met != nil {
		d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return designer.GreedySelect(ctx, d.DB, cw, cands, d.Budget)
}

// Session implements designer.SessionDesigner: a designer for the calls of
// one robust run that keys each query's template (designer.Compressor),
// derives its candidates, builds each index and view and costs each pair
// cell once per run (designer.PairRows).
func (d *Designer) Session() designer.Designer {
	return &session{g: d.generator(true), rows: designer.NewPairRows(d.DB), c: designer.NewCompressor(true)}
}

// session is a Designer's run-scoped form. Its Design is the Designer's,
// with template numbers, derivations, structures and pair cells kept
// across calls.
type session struct {
	g    *generator
	rows *designer.PairRows
	c    *designer.Compressor
}

func (s *session) Name() string { return s.g.d.Name() }

func (s *session) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := s.g.d.compress(s.c.Compress(w))
	cands, slots := s.g.candidates(cw)
	if s.g.d.DB.met != nil {
		s.g.d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return s.rows.GreedySelect(ctx, cw, cands, slots, s.g.d.Budget)
}

// derivation is what candidate generation derives from one query alone,
// whatever workload it appears in: its columns, its index key and its
// tailored structures (nil where none is built or the constructor rejects
// it), with their slots in the generator's interner.
type derivation struct {
	q               *workload.Query
	cols            workload.ColSet
	keyCols         []int // equalities by selectivity, then one range
	plain, covering *Index
	view            *MatView

	plainSlot, coveringSlot, viewSlot int32
}

// generator generates candidate pools: for one call of the plain designer,
// or for every call of a session, which keeps each query's derivation and
// every index and view it builds (interned by key, so a structure built
// once is handed back on later calls) together with its reused scratch.
type generator struct {
	d       *Designer
	derived map[*workload.Query]*derivation // nil: derive per call
	in      *designer.Interner

	// Scratch, reused across a session's calls.
	wqs      []weightedQuery
	clusters []cluster
	out      []designer.Structure
	slots    []int32
	ids      []int
	keyCols  []int
	include  []int
	aggs     []workload.Agg
	key      []byte
}

func (d *Designer) generator(session bool) *generator {
	g := &generator{d: d, in: designer.NewInterner()}
	if session {
		g.derived = map[*workload.Query]*derivation{}
	}
	return g
}

// weightedQuery pairs a representative query's derivation with its
// compressed weight.
type weightedQuery struct {
	*derivation
	weight float64
}

// cluster is one family of overlapping templates of a table. Its sets and
// aggregate list are the generator's own memory, rebuilt per call.
type cluster struct {
	table    string
	cols     workload.ColSet
	members  int
	heaviest *derivation
	gbCols   workload.ColSet
	aggs     []workload.Agg
}

// derive returns q's derivation, or nil when the cost model cannot cost q;
// a session keeps both answers across calls.
func (g *generator) derive(q *workload.Query) *derivation {
	if dv, ok := g.derived[q]; ok {
		return dv
	}
	var dv *derivation
	if g.d.DB.check(q) == nil {
		dv = g.d.tailored(q)
		dv.plainSlot, dv.coveringSlot, dv.viewSlot = -1, -1, -1
		if dv.plain != nil {
			dv.plain, dv.plainSlot = g.index(g.in.Add(dv.plain))
		}
		if dv.covering != nil {
			dv.covering, dv.coveringSlot = g.index(g.in.Add(dv.covering))
		}
		if dv.view != nil {
			var s designer.Structure
			s, dv.viewSlot = g.in.Add(dv.view)
			dv.view = s.(*MatView)
		}
	}
	if g.derived != nil {
		g.derived[q] = dv
	}
	return dv
}

func (g *generator) index(s designer.Structure, slot int32) (*Index, int32) {
	return s.(*Index), slot
}

// clusterIndex returns DB.NewIndex(table, keyCols, include), or nil where it
// fails, with its slot; include is ascending and holds no key column. An
// index of the same key built before is handed back without a build.
func (g *generator) clusterIndex(table string, keyCols, include []int) (designer.Structure, int32) {
	dedup := g.keyCols[:0]
	for _, c := range keyCols {
		if !slices.Contains(dedup, c) {
			dedup = append(dedup, c)
		}
	}
	g.keyCols = dedup
	g.key = appendIndexKey(g.key[:0], table, dedup, include)
	if s, x := g.in.Lookup(g.key); x >= 0 {
		return s, x
	}
	idx, err := g.d.DB.NewIndex(table, keyCols, include)
	if err != nil {
		return nil, -1
	}
	return g.in.Add(idx)
}

// clusterView returns DB.NewMatView(table, gb, aggs), or nil where it fails,
// with its slot; gb is ascending and duplicate-free. A view of the same key
// built before is handed back without a build.
func (g *generator) clusterView(table string, gb []int, aggs []workload.Agg) (designer.Structure, int32) {
	g.key = appendMatViewKey(g.key[:0], table, gb, aggs)
	if s, x := g.in.Lookup(g.key); x >= 0 {
		return s, x
	}
	mv, err := g.d.DB.NewMatView(table, gb, aggs)
	if err != nil {
		return nil, -1
	}
	return g.in.Add(mv)
}

func (d *Designer) maxKeyCols() int {
	if d.MaxKeyCols > 0 {
		return d.MaxKeyCols
	}
	return 3
}

// Compress applies the workload-compression heuristics: template collapse,
// weight damping, and rare-template pruning.
func (d *Designer) Compress(w *workload.Workload) *workload.Workload {
	return d.compress(designer.CompressByTemplate(w))
}

// compress applies the heuristics after the template collapse to cw, a
// template-compressed workload: it drops templates below minTemplateShare
// and raises the remaining weights to the 0.5 power, flattening the
// frequency skew.
func (d *Designer) compress(cw *workload.Workload) *workload.Workload {
	total := cw.TotalWeight()
	out := &workload.Workload{}
	for _, it := range cw.Items {
		if total > 0 && it.Weight/total < minTemplateShare {
			continue
		}
		out.Add(it.Q, math.Sqrt(it.Weight))
	}
	if out.Len() == 0 {
		return cw
	}
	return out
}

// Candidates generates the candidate pool: per-template indices (key-only
// and covering) and materialized views for aggregate templates.
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
		maxCand = 512
	}

	out, slots := g.out[:0], g.slots[:0]
	g.in.Begin()
	add := func(s designer.Structure, slot int32) {
		if s == nil || len(out) >= maxCand || !g.in.Mark(slot) {
			return
		}
		out = append(out, s)
		slots = append(slots, slot)
	}

	// Family clusters (three or more near-duplicate templates, as produced
	// by perturbed workloads) earn hedged covering indexes whose include set
	// is the family union: any member or near-variant becomes index-only.
	clusters := g.clusters[:0]
	for _, e := range wqs {
		cols := e.cols
		best := -1
		bestJ := 0.0
		for ci := range clusters {
			cl := &clusters[ci]
			if cl.table != e.q.Spec.Table {
				continue
			}
			if cl.cols.UnionLen(cols) > 24 {
				continue
			}
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
			*cl = cluster{table: e.q.Spec.Table, cols: cl.cols, heaviest: e.derivation, gbCols: cl.gbCols, aggs: cl.aggs[:0]}
			cl.cols.SetUnion(cols, workload.ColSet{})
			cl.gbCols.Clear()
		} else {
			cl = &clusters[best]
			cl.cols.SetUnion(cl.cols, cols)
		}
		cl.members++
		for _, c := range e.q.Spec.GroupBy {
			cl.gbCols.Add(c)
		}
		for _, p := range e.q.Spec.Preds {
			cl.gbCols.Add(p.Col)
		}
		for _, a := range e.q.Spec.Aggs {
			if !slices.Contains(cl.aggs, a) {
				cl.aggs = append(cl.aggs, a)
			}
		}
	}
	g.clusters = clusters
	for ci := range clusters {
		cl := &clusters[ci]
		if cl.members < 3 || len(out) >= maxCand {
			continue
		}
		keyCols := cl.heaviest.keyCols
		if len(keyCols) == 0 {
			continue
		}
		g.ids = cl.cols.AppendIDs(g.ids[:0])
		include := g.include[:0]
		for _, c := range g.ids {
			if !slices.Contains(keyCols, c) {
				include = append(include, c)
			}
		}
		g.include = include
		add(g.clusterIndex(cl.table, keyCols, include))

		// Family materialized view: the union of the members' grouping and
		// filter columns with the union of their aggregates (AVG stored as
		// SUM + COUNT). One view then answers every member and their
		// near-variants by roll-up.
		if g.ids = cl.gbCols.AppendIDs(g.ids[:0]); len(g.ids) > 0 && len(g.ids) <= 6 && len(cl.aggs) > 0 {
			stored := append(g.aggs[:0], workload.Agg{Fn: workload.Count, Col: -1})
			for _, a := range cl.aggs {
				if a.Fn == workload.Avg {
					stored = append(stored, workload.Agg{Fn: workload.Sum, Col: a.Col})
				} else if !(a.Fn == workload.Count && a.Col < 0) {
					stored = append(stored, a)
				}
			}
			g.aggs = stored
			add(g.clusterView(cl.table, g.ids, stored))
		}
	}

	for _, e := range wqs {
		if len(out) >= maxCand {
			break
		}
		if e.plain != nil {
			add(e.plain, e.plainSlot)
		}
		if e.covering != nil {
			add(e.covering, e.coveringSlot)
		}
		if e.view != nil {
			add(e.view, e.viewSlot)
		}
	}
	g.out, g.slots = out, slots
	return out, slots
}

// tailored derives a checked query's structures: plain and covering indexes
// on its key, and a materialized view for an aggregate template.
func (d *Designer) tailored(q *workload.Query) *derivation {
	spec := q.Spec
	maxKey := d.maxKeyCols()
	dv := &derivation{q: q, cols: q.Columns()}

	// Index keys: equality predicates by ascending selectivity, then the
	// most selective range predicate.
	preds := spec.SortPredsBySelectivity()
	for _, p := range preds {
		if p.Op == workload.Eq && len(dv.keyCols) < maxKey {
			dv.keyCols = append(dv.keyCols, p.Col)
		}
	}
	for _, p := range preds {
		if p.Op != workload.Eq && len(dv.keyCols) < maxKey {
			dv.keyCols = append(dv.keyCols, p.Col)
			break
		}
	}
	if keyCols := dv.keyCols; len(keyCols) > 0 {
		// Plain index.
		dv.plain, _ = d.DB.NewIndex(spec.Table, keyCols, nil)
		// Covering index: include the rest of the referenced columns if
		// the query is narrow enough to make index-only plans plausible.
		ref := spec.ReferencedCols()
		if len(ref) <= 8 {
			var include []int
			keySet := workload.NewColSet(keyCols...)
			for _, c := range ref {
				if !keySet.Has(c) {
					include = append(include, c)
				}
			}
			dv.covering, _ = d.DB.NewIndex(spec.Table, keyCols, include)
		}
	}

	// Materialized view for aggregate templates: group by the query's
	// group-by plus its predicate columns (so filters remain answerable).
	if len(spec.GroupBy) > 0 && len(spec.Aggs) > 0 {
		gb := append([]int(nil), spec.GroupBy...)
		gbSet := workload.NewColSet(gb...)
		for _, p := range spec.Preds {
			if !gbSet.Has(p.Col) {
				gb = append(gb, p.Col)
				gbSet.Add(p.Col)
			}
		}
		aggs := append([]workload.Agg(nil), spec.Aggs...)
		// Always carry COUNT(*) so AVG queries can roll up.
		hasCount := false
		for _, a := range aggs {
			if a.Fn == workload.Count && a.Col < 0 {
				hasCount = true
			}
		}
		if !hasCount {
			aggs = append(aggs, workload.Agg{Fn: workload.Count, Col: -1})
		}
		// AVG is stored as SUM + COUNT.
		var stored []workload.Agg
		for _, a := range aggs {
			if a.Fn == workload.Avg {
				stored = append(stored, workload.Agg{Fn: workload.Sum, Col: a.Col})
			} else {
				stored = append(stored, a)
			}
		}
		dv.view, _ = d.DB.NewMatView(spec.Table, gb, stored)
	}
	return dv
}
