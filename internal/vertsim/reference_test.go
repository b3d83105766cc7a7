package vertsim

import (
	"context"
	"fmt"
	"math"
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
