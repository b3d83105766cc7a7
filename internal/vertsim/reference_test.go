package vertsim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/workload"
)

// This file keeps the cost model as it was before it was split into query
// terms (prepare) and path terms (pathTermsOf): a check pass, then a
// pathCost that re-derived every term for every access path, and an Explain
// that copied the selectivity loops. TestKernelMatchesReference diffs the
// split kernel against it bit for bit.

func (db *DB) refCheck(q *workload.Query) error {
	if q == nil || q.Spec == nil {
		return fmt.Errorf("vertsim: query without spec: %w", designer.ErrUnsupported)
	}
	if _, ok := db.Schema.Table(q.Spec.Table); !ok {
		return fmt.Errorf("vertsim: unknown table %q: %w", q.Spec.Table, designer.ErrUnsupported)
	}
	bad := -1
	if q.EachRef(func(c int) bool {
		bad = c
		return db.Schema.ValidID(c) && db.Schema.Column(c).Table == q.Spec.Table
	}) {
		return nil
	}
	if !db.Schema.ValidID(bad) {
		return fmt.Errorf("vertsim: invalid column %d: %w", bad, designer.ErrUnsupported)
	}
	return fmt.Errorf("vertsim: column %s outside anchor %q: %w",
		db.Schema.Column(bad).Qualified(), q.Spec.Table, designer.ErrUnsupported)
}

func (db *DB) refPathCost(q *workload.Query, p *Projection) float64 {
	t, _ := db.Schema.Table(q.Spec.Table)
	rows := float64(t.Rows)

	var width float64
	q.EachRef(func(c int) bool {
		width += float64(db.Schema.Column(c).Type.Width())
		return true
	})

	prefixSel := 1.0
	var sortCols []workload.OrderCol
	compression := 1.0
	if p != nil {
		sortCols = p.SortCols
		if len(sortCols) > 0 {
			compression = scanCompression
		}
	}
	for _, oc := range sortCols {
		pred, ok := predOn(q.Spec.Preds, oc.Col)
		if !ok {
			break
		}
		prefixSel *= clampSel(pred.Sel)
		if pred.Op != workload.Eq {
			break
		}
	}

	totalSel := 1.0
	for _, pred := range q.Spec.Preds {
		totalSel *= clampSel(pred.Sel)
	}

	rowsScanned := math.Max(rows*prefixSel, 1)
	outRows := math.Max(rows*totalSel, 1)

	cost := fixedOverheadMs
	cost += rowsScanned * width * compression / scanBytesPerMs

	if len(q.Spec.GroupBy) > 0 {
		aggCost := outRows / aggRowsPerMs
		if groupBySortStreamed(q, sortCols) {
			aggCost *= 0.1
		}
		cost += aggCost
		outRows = math.Min(outRows, db.groupEstimate(q.Spec.GroupBy))
	}
	if len(q.Spec.OrderBy) > 0 && !orderSatisfied(q.Spec, sortCols) {
		cost += outRows * math.Log2(outRows+2) / sortRowFactor
	}
	return cost
}

func (db *DB) refBestPath(q *workload.Query, d *designer.Design) (*Projection, float64, error) {
	if err := db.refCheck(q); err != nil {
		return nil, 0, err
	}
	var bestP *Projection
	best := db.refPathCost(q, nil)
	if d != nil {
		for _, s := range d.Structures {
			p, ok := s.(*Projection)
			if !ok || p.Anchor != q.Spec.Table || !q.RefsIn(p.Cols) {
				continue
			}
			if c := db.refPathCost(q, p); c < best {
				best, bestP = c, p
			}
		}
	}
	return bestP, best, nil
}

func (db *DB) refExplain(q *workload.Query, d *designer.Design) (string, error) {
	proj, est, err := db.refBestPath(q, d)
	if err != nil {
		return "", err
	}
	t, _ := db.Schema.Table(q.Spec.Table)
	rows := float64(t.Rows)

	prefixSel := 1.0
	var sortCols []workload.OrderCol
	if proj != nil {
		sortCols = proj.SortCols
		for _, oc := range sortCols {
			pred, ok := predOn(q.Spec.Preds, oc.Col)
			if !ok {
				break
			}
			prefixSel *= clampSel(pred.Sel)
			if pred.Op != workload.Eq {
				break
			}
		}
	}
	totalSel := 1.0
	for _, p := range q.Spec.Preds {
		totalSel *= clampSel(p.Sel)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN %s (est %.0f ms)\n", q, est)
	if proj == nil {
		fmt.Fprintf(&b, "  SCAN super-projection of %s: %.0f rows\n", q.Spec.Table, rows)
	} else {
		fmt.Fprintf(&b, "  SCAN %s\n", proj.Describe())
		fmt.Fprintf(&b, "    sort-prefix pruning: %.0f of %.0f rows\n",
			math.Max(rows*prefixSel, 1), rows)
	}
	if len(q.Spec.Preds) > 0 {
		fmt.Fprintf(&b, "  FILTER %d predicates: %.0f rows out\n",
			len(q.Spec.Preds), math.Max(rows*totalSel, 1))
	}
	if len(q.Spec.GroupBy) > 0 {
		mode := "HASH"
		if groupBySortStreamed(q, sortCols) {
			mode = "STREAMING"
		}
		fmt.Fprintf(&b, "  %s GROUP BY %d columns, %d aggregates\n",
			mode, len(q.Spec.GroupBy), len(q.Spec.Aggs))
	}
	if len(q.Spec.OrderBy) > 0 {
		if orderSatisfied(q.Spec, sortCols) {
			b.WriteString("  ORDER BY satisfied by the projection's sort order\n")
		} else {
			b.WriteString("  SORT for ORDER BY\n")
		}
	}
	if q.Spec.Limit > 0 {
		fmt.Fprintf(&b, "  LIMIT %d\n", q.Spec.Limit)
	}
	return b.String(), nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestKernelMatchesReference diffs Cost, BestPath and Explain against the
// reference kernel on R1's first month and sampler mutants of its queries,
// under no design, every candidate alone and random multi-projection
// designs, plus queries the model must reject: the same float bits, the
// same chosen projection, the same plan text and the same error text.
func TestKernelMatchesReference(t *testing.T) {
	db, _, cw, pool := r1Pool(t)
	ctx := context.Background()
	queries := designertest.Mutants(db.Schema, cw, 7)
	tables := db.Schema.Tables()
	queries = append(queries,
		&workload.Query{ID: 1},                                 // no spec
		q(&workload.Spec{Table: "nope", SelectCols: []int{1}}), // unknown table
	)
	for i, tb := range tables {
		own := tb.Columns[0].ID
		other := tables[(i+1)%len(tables)].Columns[0].ID
		queries = append(queries,
			q(&workload.Spec{Table: tb.Name, SelectCols: []int{own, db.Schema.NumColumns() + 70}}), // invalid ID
			q(&workload.Spec{Table: tb.Name, SelectCols: []int{own, other}}),                       // column outside the anchor
		)
	}

	designs := []*designer.Design{nil}
	for _, s := range pool {
		designs = append(designs, designer.NewDesign(s))
	}
	random := designertest.RandomDesigns(pool, 24, 6, 11)
	designs = append(designs, random...)

	rejected, compared := 0, 0
	for _, query := range queries {
		for _, d := range designs {
			want, wantErr := 0.0, db.refCheck(query)
			var wantP *Projection
			if wantErr == nil {
				wantP, want, _ = db.refBestPath(query, d)
			}
			got, gotErr := db.Cost(ctx, query, d)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("%v under %v: Cost error %q, reference %q", query, d, errText(gotErr), errText(wantErr))
			}
			gotP, gotBest, bpErr := db.BestPath(query, d)
			if errText(bpErr) != errText(wantErr) {
				t.Fatalf("%v under %v: BestPath error %q, reference %q", query, d, errText(bpErr), errText(wantErr))
			}
			if wantErr != nil {
				rejected++
				break // the verdict does not depend on the design
			}
			compared++
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotBest) != math.Float64bits(want) {
				t.Fatalf("%v under %v: Cost %v, BestPath %v, reference %v", query, d, got, gotBest, want)
			}
			if gotP != wantP {
				t.Fatalf("%v under %v: BestPath chose %v, reference %v", query, d, gotP, wantP)
			}
		}
	}
	if rejected < 2+2*len(tables) || compared == 0 {
		t.Fatalf("compared %d costs and %d rejections; the inputs lost their coverage", compared, rejected)
	}

	for _, query := range queries {
		for _, d := range append([]*designer.Design{nil}, random...) {
			want, wantErr := db.refExplain(query, d)
			got, gotErr := db.Explain(query, d)
			if got != want || errText(gotErr) != errText(wantErr) {
				t.Fatalf("Explain differs from the reference:\n got %q (%v)\nwant %q (%v)", got, gotErr, want, wantErr)
			}
		}
	}
}

// The rest of this file keeps candidate generation as it was before its cluster
// bookkeeping went map-free and a session's structures were interned: a
// derivation per call, per-cluster weight maps, a map-sorted topCols and a
// seen-by-key map. TestCandidatesMatchReference and
// FuzzCandidatesMatchReference diff the generator's pools against it, key by
// key.

// refDerive is derive without a memo.
func (d *Designer) refDerive(q *workload.Query) *derivation {
	var dv *derivation
	if _, err := d.DB.prepare(q); err == nil {
		spec := q.Spec
		cols := spec.ReferencedCols()
		dv = &derivation{q: q, cols: q.Columns(), sortKey: d.sortKey(spec, false)}
		dv.primary, _ = NewProjection(d.DB.Schema, spec.Table, cols, dv.sortKey)
		if len(spec.OrderBy) > 0 && len(spec.GroupBy) == 0 {
			dv.topN, _ = NewProjection(d.DB.Schema, spec.Table, cols, d.sortKey(spec, true))
		}
	}
	return dv
}

// refCandidates is Candidates over an already template-compressed workload.
func (d *Designer) refCandidates(cw *workload.Workload) []designer.Structure {
	wqs := make([]weightedQuery, 0, cw.Len())
	for _, it := range cw.Items {
		if dv := d.refDerive(it.Q); dv != nil {
			wqs = append(wqs, weightedQuery{dv, it.Weight})
		}
	}
	sort.SliceStable(wqs, func(i, j int) bool { return wqs[i].weight > wqs[j].weight })
	maxCand := d.MaxCandidates
	if maxCand <= 0 {
		maxCand = 640
	}

	var out []designer.Structure
	seen := make(map[string]bool)
	put := func(p *Projection) {
		if p == nil || seen[p.Key()] {
			return
		}
		seen[p.Key()] = true
		out = append(out, p)
	}
	add := func(p *Projection, err error) {
		if err == nil {
			put(p)
		}
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
		put(wq.primary)
		// Secondary for pure top-N queries: ORDER BY-leading sort order.
		put(wq.topN)
	}

	// Merged candidates: agglomerate overlapping templates of the same table
	// into cluster-union projections. A cluster projection covers every
	// member (and, importantly, small variations of them), which is how the
	// designer stretches the budget across similar queries — and how a
	// workload that contains perturbed variants (CliffGuard's moved
	// workloads) turns into wider, drift-tolerant projections.
	type cluster struct {
		table    string
		cols     workload.ColSet
		members  int
		weight   float64
		predWt   map[int]float64 // pred column -> accumulated weight (eq boosted)
		groupWt  map[int]float64
		heaviest *derivation
		second   *derivation
	}
	var clusters []*cluster
	const maxClusterCols = 22
	for _, wq := range wqs {
		cols := wq.cols
		var best *cluster
		bestJ := 0.0
		for _, cl := range clusters {
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
				best, bestJ = cl, j
			}
		}
		if best == nil {
			best = &cluster{
				table:   wq.q.Spec.Table,
				cols:    cols,
				predWt:  make(map[int]float64),
				groupWt: make(map[int]float64),
			}
			clusters = append(clusters, best)
		} else {
			best.cols = best.cols.Union(cols)
		}
		best.members++
		best.weight += wq.weight
		// wqs is sorted by weight, so the first two members to join are the
		// cluster's heaviest.
		if best.heaviest == nil {
			best.heaviest = wq.derivation
		} else if best.second == nil {
			best.second = wq.derivation
		}
		for _, p := range wq.q.Spec.Preds {
			boost := 1.0
			if p.Op == workload.Eq {
				boost = 2.0 // equalities extend the usable sort prefix
			}
			best.predWt[p.Col] += wq.weight * boost / (p.Sel + 1e-6)
		}
		for _, g := range wq.q.Spec.GroupBy {
			best.groupWt[g] += wq.weight
		}
	}
	for _, cl := range clusters {
		// Only genuine families — three or more near-duplicate templates —
		// earn speculative union projections.
		if cl.members < 3 || len(out) >= maxCand {
			continue
		}
		// Sort key: the cluster's most valuable predicate columns (weight x
		// selectivity), then shared group-by columns.
		key := refTopCols(cl.predWt, d.maxSortCols())
		for _, g := range refTopCols(cl.groupWt, d.maxSortCols()-len(key)) {
			key = append(key, g)
		}
		var sortCols []workload.OrderCol
		for _, c := range key {
			sortCols = append(sortCols, workload.OrderCol{Col: c})
		}
		ids := cl.cols.IDs()
		add(NewProjection(d.DB.Schema, cl.table, ids, sortCols))
		// Variants sorted for the heaviest members, preserving their ideal
		// plans inside the wider projection — Vertica's classic trick of
		// keeping several projections that differ only in sort order.
		if cl.heaviest != nil && len(out) < maxCand {
			add(NewProjection(d.DB.Schema, cl.table, ids, cl.heaviest.sortKey))
		}
		if cl.second != nil && len(out) < maxCand {
			add(NewProjection(d.DB.Schema, cl.table, ids, cl.second.sortKey))
		}
		// One variant per popular predicate column as the leading sort key:
		// members (and near-variants) filtering on that column get a pruned
		// scan no matter which other predicates they carry.
		base := refTopCols(cl.predWt, d.maxSortCols())
		for _, lead := range refTopCols(cl.predWt, 8) {
			if len(out) >= maxCand {
				break
			}
			variant := []workload.OrderCol{{Col: lead}}
			for _, c := range base {
				if c != lead && len(variant) < d.maxSortCols() {
					variant = append(variant, workload.OrderCol{Col: c})
				}
			}
			add(NewProjection(d.DB.Schema, cl.table, ids, variant))
		}
	}
	return out
}

// refTopCols returns up to k map keys by descending weight (deterministic
// tie-break on column ID).
func refTopCols(wt map[int]float64, k int) []int {
	if k <= 0 {
		return nil
	}
	cols := make([]int, 0, len(wt))
	for c := range wt {
		cols = append(cols, c)
	}
	sort.SliceStable(cols, func(a, b int) bool {
		if wt[cols[a]] != wt[cols[b]] {
			return wt[cols[a]] > wt[cols[b]]
		}
		return cols[a] < cols[b]
	})
	if len(cols) > k {
		cols = cols[:k]
	}
	return cols
}

// sameCandidates requires the pools of the plain designer and of one
// generator session, over ws in order, to be refCandidates' pools, key by
// key, and the session's slots to number the keys of its interner.
func sameCandidates(d *Designer, ws []*workload.Workload) error {
	g := d.generator(true)
	for i, w := range ws {
		cw := designer.CompressByTemplate(w)
		want := d.refCandidates(cw)
		if err := designertest.SameKeys(d.Candidates(w), want); err != nil {
			return fmt.Errorf("workload %d, plain: %w", i, err)
		}
		got, slots := g.candidates(cw)
		if err := designertest.SameKeys(got, want); err != nil {
			return fmt.Errorf("workload %d, session: %w", i, err)
		}
		for j, s := range got {
			if p, x := g.in.Lookup([]byte(s.Key())); x != slots[j] || p != s {
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
			for _, maxCand := range []int{640, 24} {
				d := NewDesigner(db, 2560<<20)
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
// session, at a fuzzed candidate cap and sort-key length.
func FuzzCandidatesMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(300), uint16(40), 1.0, uint16(640), uint8(4))
	f.Add(int64(2), uint16(17), uint16(60), uint16(200), 0.5, uint16(30), uint8(2))
	f.Add(int64(9), uint16(90), uint16(5), uint16(7), 7.0, uint16(3), uint8(0))
	s, month, err := designertest.R1Month(1)
	if err != nil {
		f.Fatal(err)
	}
	db := Open(s)
	queries := designertest.Mutants(s, month, 1)
	f.Fuzz(func(t *testing.T, seed int64, start, n, mutants uint16, scale float64, maxCand uint16, sortCols uint8) {
		lo := int(start) % month.Len()
		w := &workload.Workload{}
		for i, q := range queries[lo:min(month.Len(), lo+int(n))] {
			weight := 1 + float64((int64(i)*7+seed)&7)
			w.Add(q, weight)
		}
		moved := w.Clone()
		for i, q := range queries[month.Len():][:min(month.Len(), int(mutants))] {
			if scale > 0 && scale < 1e6 {
				moved.Add(q, scale*float64(1+i%3))
			}
		}
		d := NewDesigner(db, 2560<<20)
		d.MaxCandidates = int(maxCand)
		d.MaxSortCols = int(sortCols % 7)
		if err := sameCandidates(d, []*workload.Workload{w, moved, w}); err != nil {
			t.Fatal(err)
		}
	})
}
