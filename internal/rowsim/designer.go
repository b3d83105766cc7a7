package rowsim

import (
	"context"
	"math"
	"sort"

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
	// MinTemplateShare drops templates carrying less than this fraction of
	// total workload weight during compression (default 0.2%).
	MinTemplateShare float64
	// DampWeights raises template weights to the 0.5 power during
	// compression when true (default), flattening the frequency skew.
	DampWeights bool
}

// NewDesigner returns a nominal row-store designer with defaults.
func NewDesigner(db *DB, budget int64) *Designer {
	return &Designer{
		DB: db, Budget: budget,
		MaxKeyCols: 3, MaxCandidates: 512,
		MinTemplateShare: 0.002, DampWeights: true,
	}
}

// Name implements designer.Designer.
func (d *Designer) Name() string { return "DBMS-X-Advisor" }

// Design implements designer.Designer.
func (d *Designer) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := d.Compress(w)
	cands := d.candidates(cw, nil)
	if d.DB.met != nil {
		d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return designer.GreedySelect(ctx, d.DB, cw, cands, d.Budget)
}

// Session implements designer.SessionDesigner: a designer for the calls of
// one robust run that derives each query's candidates and costs each pair
// cell once per run (designer.PairRows).
func (d *Designer) Session() designer.Designer {
	return &session{d: d, derived: map[*workload.Query]*derivation{}, rows: designer.NewPairRows(d.DB)}
}

// session is a Designer's run-scoped form. Its Design is the Designer's,
// with derivations and pair cells kept across calls.
type session struct {
	d       *Designer
	derived map[*workload.Query]*derivation
	rows    *designer.PairRows
}

func (s *session) Name() string { return s.d.Name() }

func (s *session) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := s.d.Compress(w)
	cands := s.d.candidates(cw, s.derived)
	if s.d.DB.met != nil {
		s.d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return s.rows.GreedySelect(ctx, cw, cands, s.d.Budget)
}

// derivation is what candidate generation derives from one query alone,
// whatever workload it appears in: its columns, its index key and its
// tailored structures (nil where none is built or the constructor rejects
// it).
type derivation struct {
	q               *workload.Query
	cols            workload.ColSet
	keyCols         []int // equalities by selectivity, then one range
	plain, covering *Index
	view            *MatView
}

// derive returns q's derivation, or nil when the cost model cannot cost q;
// memo, when not nil, keeps both answers across calls.
func (d *Designer) derive(q *workload.Query, memo map[*workload.Query]*derivation) *derivation {
	if dv, ok := memo[q]; ok {
		return dv
	}
	var dv *derivation
	if d.DB.check(q) == nil {
		dv = d.tailored(q)
	}
	if memo != nil {
		memo[q] = dv
	}
	return dv
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
	cw := designer.CompressByTemplate(w)
	total := cw.TotalWeight()
	out := &workload.Workload{}
	minShare := d.MinTemplateShare
	for _, it := range cw.Items {
		if total > 0 && it.Weight/total < minShare {
			continue
		}
		weight := it.Weight
		if d.DampWeights {
			weight = math.Sqrt(weight)
		}
		out.Add(it.Q, weight)
	}
	if out.Len() == 0 {
		return cw
	}
	return out
}

// Candidates generates the candidate pool: per-template indices (key-only
// and covering) and materialized views for aggregate templates.
func (d *Designer) Candidates(w *workload.Workload) []designer.Structure {
	return d.candidates(designer.CompressByTemplate(w), nil)
}

// candidates is Candidates over an already template-compressed workload,
// taking each query's derivation from memo when it is not nil.
func (d *Designer) candidates(cw *workload.Workload, memo map[*workload.Query]*derivation) []designer.Structure {
	type wq struct {
		*derivation
		weight float64
	}
	var wqs []wq
	for _, it := range cw.Items {
		if dv := d.derive(it.Q, memo); dv != nil {
			wqs = append(wqs, wq{dv, it.Weight})
		}
	}
	sort.SliceStable(wqs, func(i, j int) bool { return wqs[i].weight > wqs[j].weight })

	maxCand := d.MaxCandidates
	if maxCand <= 0 {
		maxCand = 512
	}

	var out []designer.Structure
	seen := make(map[string]bool)
	add := func(s designer.Structure, err error) {
		if err != nil || s == nil || seen[s.Key()] || len(out) >= maxCand {
			return
		}
		seen[s.Key()] = true
		out = append(out, s)
	}

	// Family clusters (three or more near-duplicate templates, as produced
	// by perturbed workloads) earn hedged covering indexes whose include set
	// is the family union: any member or near-variant becomes index-only.
	type cluster struct {
		table    string
		cols     workload.ColSet
		members  int
		heaviest *derivation
		gbCols   workload.ColSet
		aggs     []workload.Agg
	}
	var clusters []*cluster
	for _, e := range wqs {
		cols := e.cols
		var best *cluster
		bestJ := 0.0
		for _, cl := range clusters {
			if cl.table != e.q.Spec.Table {
				continue
			}
			if cl.cols.UnionLen(cols) > 24 {
				continue
			}
			j := float64(cl.cols.IntersectLen(cols)) / float64(cols.Len())
			if j >= 0.8 && j > bestJ {
				best, bestJ = cl, j
			}
		}
		if best == nil {
			best = &cluster{table: e.q.Spec.Table, cols: cols, heaviest: e.derivation}
			clusters = append(clusters, best)
		} else {
			best.cols = best.cols.Union(cols)
		}
		best.members++
		for _, c := range e.q.Spec.GroupBy {
			best.gbCols.Add(c)
		}
		for _, p := range e.q.Spec.Preds {
			best.gbCols.Add(p.Col)
		}
		for _, a := range e.q.Spec.Aggs {
			dup := false
			for _, x := range best.aggs {
				if x.Fn == a.Fn && x.Col == a.Col {
					dup = true
					break
				}
			}
			if !dup {
				best.aggs = append(best.aggs, a)
			}
		}
	}
	for _, cl := range clusters {
		if cl.members < 3 || len(out) >= maxCand {
			continue
		}
		keyCols := cl.heaviest.keyCols
		if len(keyCols) == 0 {
			continue
		}
		keySet := workload.NewColSet(keyCols...)
		var include []int
		for _, c := range cl.cols.IDs() {
			if !keySet.Has(c) {
				include = append(include, c)
			}
		}
		add(d.DB.NewIndex(cl.table, keyCols, include))

		// Family materialized view: the union of the members' grouping and
		// filter columns with the union of their aggregates (AVG stored as
		// SUM + COUNT). One view then answers every member and their
		// near-variants by roll-up.
		if gb := cl.gbCols.IDs(); len(gb) > 0 && len(gb) <= 6 && len(cl.aggs) > 0 {
			stored := []workload.Agg{{Fn: workload.Count, Col: -1}}
			for _, a := range cl.aggs {
				if a.Fn == workload.Avg {
					stored = append(stored, workload.Agg{Fn: workload.Sum, Col: a.Col})
				} else if !(a.Fn == workload.Count && a.Col < 0) {
					stored = append(stored, a)
				}
			}
			add(d.DB.NewMatView(cl.table, gb, stored))
		}
	}

	for _, e := range wqs {
		if len(out) >= maxCand {
			break
		}
		if e.plain != nil {
			add(e.plain, nil)
		}
		if e.covering != nil {
			add(e.covering, nil)
		}
		if e.view != nil {
			add(e.view, nil)
		}
	}
	return out
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
