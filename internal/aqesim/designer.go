package aqesim

import (
	"context"
	"sort"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Designer is the nominal sample-selection designer (BlinkDB-style): per
// aggregate template it proposes a stratified sample over the template's
// grouping and filtering columns, plus merged samples for template families,
// and greedily selects within the storage budget. Like the other nominal
// designers it is brittle by construction — a drifted query grouping on a
// column outside every chosen stratification falls back to the full scan.
type Designer struct {
	DB     *DB
	Budget int64
	// BaseFraction is the sampling rate proposed per candidate before the
	// per-stratum row floor raises it (default 0.01).
	BaseFraction float64
	// MaxCandidates caps the candidate pool.
	MaxCandidates int
}

// NewDesigner returns a nominal sample designer.
func NewDesigner(db *DB, budget int64) *Designer {
	return &Designer{DB: db, Budget: budget, BaseFraction: 0.01, MaxCandidates: 256}
}

// Name implements designer.Designer.
func (d *Designer) Name() string { return "AQE-SampleSelector" }

// Design implements designer.Designer.
func (d *Designer) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := designer.CompressByTemplate(w)
	cands := d.candidates(cw)
	if d.DB.met != nil {
		d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return designer.GreedySelect(ctx, d.DB, cw, cands, d.Budget)
}

// Candidates implements the CandidateProvider contract used by the
// local-search baselines and the designable filter.
func (d *Designer) Candidates(w *workload.Workload) []designer.Structure {
	return d.candidates(designer.CompressByTemplate(w))
}

// candidates is Candidates over an already template-compressed workload.
func (d *Designer) candidates(cw *workload.Workload) []designer.Structure {
	frac := d.BaseFraction
	if frac <= 0 {
		frac = 0.01
	}
	maxCand := d.MaxCandidates
	if maxCand <= 0 {
		maxCand = 256
	}

	type wq struct {
		q      *workload.Query
		weight float64
	}
	var wqs []wq
	for _, it := range cw.Items {
		if d.DB.check(it.Q) != nil || len(it.Q.Spec.Aggs) == 0 {
			continue
		}
		wqs = append(wqs, wq{it.Q, it.Weight})
	}
	sort.SliceStable(wqs, func(i, j int) bool { return wqs[i].weight > wqs[j].weight })

	var out []designer.Structure
	seen := make(map[string]bool)
	add := func(sm *Sample, err error) {
		if err != nil || sm == nil || seen[sm.Key()] || len(out) >= maxCand {
			return
		}
		seen[sm.Key()] = true
		out = append(out, sm)
	}
	strataOf := func(spec *workload.Spec) []int {
		var set workload.ColSet
		for _, c := range spec.GroupBy {
			set.Add(c)
		}
		for _, p := range spec.Preds {
			set.Add(p.Col)
		}
		return set.IDs()
	}

	// Per-template candidates.
	for _, e := range wqs {
		if cols := strataOf(e.q.Spec); len(cols) > 0 {
			add(NewSample(d.DB.Schema, e.q.Spec.Table, cols, frac))
		}
	}

	// Family-union candidates: near-duplicate aggregate templates share one
	// wider stratification (the hedging mechanism, exactly as in the other
	// engines' designers).
	type cluster struct {
		table   string
		cols    workload.ColSet
		members int
	}
	var clusters []*cluster
	for _, e := range wqs {
		cols := workload.NewColSet(strataOf(e.q.Spec)...)
		if cols.Empty() {
			continue
		}
		var best *cluster
		bestJ := 0.0
		for _, cl := range clusters {
			if cl.table != e.q.Spec.Table {
				continue
			}
			if cl.cols.UnionLen(cols) > 8 {
				continue // too many strata explode the group count
			}
			j := float64(cl.cols.IntersectLen(cols)) / float64(cols.Len())
			if j >= 0.5 && j > bestJ {
				best, bestJ = cl, j
			}
		}
		if best == nil {
			clusters = append(clusters, &cluster{table: e.q.Spec.Table, cols: cols, members: 1})
			continue
		}
		best.cols = best.cols.Union(cols)
		best.members++
	}
	for _, cl := range clusters {
		if cl.members >= 2 && len(out) < maxCand {
			add(NewSample(d.DB.Schema, cl.table, cl.cols.IDs(), frac))
		}
	}
	return out
}
