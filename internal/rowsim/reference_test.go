package rowsim

import (
	"fmt"
	"sort"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/workload"
)

// This file keeps candidate generation as it was before its clusters went
// map-free and a session's structures were interned: a derivation per call,
// a seen-by-key map, and every cluster index and view built through
// NewIndex and NewMatView on every call. TestCandidatesMatchReference and
// FuzzCandidatesMatchReference diff the generator's pools against it, key by
// key.

// refDerive is derive without a memo.
func (d *Designer) refDerive(q *workload.Query) *derivation {
	var dv *derivation
	if d.DB.check(q) == nil {
		dv = d.refTailored(q)
	}
	return dv
}

// refCandidates is Candidates over an already template-compressed workload.
func (d *Designer) refCandidates(cw *workload.Workload) []designer.Structure {
	type wq struct {
		*derivation
		weight float64
	}
	var wqs []wq
	for _, it := range cw.Items {
		if dv := d.refDerive(it.Q); dv != nil {
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

// refTailored derives a checked query's structures: plain and covering indexes
// on its key, and a materialized view for an aggregate template.
func (d *Designer) refTailored(q *workload.Query) *derivation {
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

// sameCandidates requires the pools of the plain designer (over template
// compression) and of one generator session (over the designer's workload
// compression, as Design calls it), over ws in order, to be refCandidates'
// pools, key by key, and the session's slots to number the keys of its
// interner.
func sameCandidates(d *Designer, ws []*workload.Workload) error {
	g := d.generator(true)
	for i, w := range ws {
		if err := designertest.SameKeys(d.Candidates(w), d.refCandidates(designer.CompressByTemplate(w))); err != nil {
			return fmt.Errorf("workload %d, plain: %w", i, err)
		}
		cw := d.Compress(w)
		got, slots := g.candidates(cw)
		if err := designertest.SameKeys(got, d.refCandidates(cw)); err != nil {
			return fmt.Errorf("workload %d, session: %w", i, err)
		}
		for j, s := range got {
			if st, x := g.in.Lookup([]byte(s.Key())); x != slots[j] || st != s {
				return fmt.Errorf("workload %d: candidate %d has slot %d, interned as %d", i, j, slots[j], x)
			}
		}
	}
	return nil
}

// TestCandidatesMatchReference diffs candidate generation against
// refCandidates on run-shaped workloads (each month, then the month with
// sampler mutants added, designertest.RunWorkloads) of the first R1 months
// at seeds 1 and 2, at the default candidate cap and a tight one.
func TestCandidatesMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		s, months, err := designertest.R1Months(seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		db := Open(s)
		for mi, month := range months {
			ws := designertest.RunWorkloads(s, month, seed, 4)
			for _, maxCand := range []int{512, 20} {
				d := NewDesigner(db, 384<<20)
				d.MaxCandidates = maxCand
				if err := sameCandidates(d, ws); err != nil {
					t.Fatalf("seed %d month %d cap %d: %v", seed, mi, maxCand, err)
				}
			}
		}
	}
}

// FuzzCandidatesMatchReference diffs candidate generation against
// refCandidates on fuzzed workloads: a slice of R1 month 0 (seed 1) and
// sampler mutants of it, with fuzzed weights, designed in two calls of one
// session, at a fuzzed candidate cap and key length.
func FuzzCandidatesMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(300), uint16(40), 1.0, uint16(512), uint8(3))
	f.Add(int64(2), uint16(17), uint16(60), uint16(200), 0.5, uint16(30), uint8(1))
	f.Add(int64(9), uint16(90), uint16(5), uint16(7), 7.0, uint16(3), uint8(0))
	s, month, err := designertest.R1Month(1)
	if err != nil {
		f.Fatal(err)
	}
	db := Open(s)
	queries := designertest.Mutants(s, month, 1)
	f.Fuzz(func(t *testing.T, seed int64, start, n, mutants uint16, scale float64, maxCand uint16, keyCols uint8) {
		lo := int(start) % month.Len()
		w := &workload.Workload{}
		for i, q := range queries[lo:min(month.Len(), lo+int(n))] {
			w.Add(q, 1+float64((int64(i)*7+seed)&7))
		}
		moved := w.Clone()
		for i, q := range queries[month.Len():][:min(month.Len(), int(mutants))] {
			if scale > 0 && scale < 1e6 {
				moved.Add(q, scale*float64(1+i%3))
			}
		}
		d := NewDesigner(db, 384<<20)
		d.MaxCandidates = int(maxCand)
		d.MaxKeyCols = int(keyCols % 6)
		if err := sameCandidates(d, []*workload.Workload{w, moved, w}); err != nil {
			t.Fatal(err)
		}
	})
}
