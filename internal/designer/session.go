package designer

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"cliffguard/internal/workload"
)

// SessionDesigner is implemented by nominal designers that can carry work
// across the Design calls of one robust run. The run calls Session once,
// before its first Design call, and drops the session when it ends: every
// workload a run designs for draws its queries from the run's universe (W0
// plus its sampled neighborhood), so derivations and pair cells repeat
// across calls. A session's Design returns exactly what the designer's own
// Design returns for the same workload; only the work it repeats is saved.
// A session is used by one goroutine. Black-box designers, portfolios and
// wrappers that count or time Design calls do not implement it.
type SessionDesigner interface {
	Designer
	Session() Designer
}

// PairRows is a run-scoped pair memo for the designer calls of one session:
// it keeps every query's empty-design cost and, per structure key, the cells
// of the queries the structure serves, so that a cell is costed at most once
// per run. Table builds the table BuildPairTable builds, bit for bit, by
// restricting the rows to the call's queries: a cell's cost depends only on
// its query and structure, and Key identifies a structure. It grows one
// PairKernel with the queries it is shown; a cost model without a kernel
// builds every table with BuildPairTable. It is used by one goroutine.
type PairRows struct {
	cm    CostModel
	k     PairKernel                // nil: every table is BuildPairTable's
	pos   map[*workload.Query]int32 // kernel index, or -1: unsupported
	base  []float64                 // by kernel index
	rows  map[string]*pairRow
	local []int32 // kernel index -> the building table's query index, or -1
	sc    buildScratch
	// qis and costs receive a row's new cells before they are copied into
	// the row, so a row grows once per extension, not cell by cell.
	qis   []int
	costs []float64
}

// pairRow is one structure's served cells over the kernel's queries [0,
// from), ascending by kernel index.
type pairRow struct {
	from  int
	qis   []int32
	costs []float64
}

// NewPairRows returns an empty memo over cm's pair kernel.
func NewPairRows(cm CostModel) *PairRows {
	r := &PairRows{cm: cm, pos: map[*workload.Query]int32{}, rows: map[string]*pairRow{},
		sc: buildScratch{seen: map[string]bool{}}}
	if pc, ok := cm.(PairCoster); ok {
		r.k = pc.PreparePairs()
	}
	return r
}

// GreedySelect is designer.GreedySelect over the memo's table.
func (r *PairRows) GreedySelect(ctx context.Context, w *workload.Workload, candidates []Structure, budget int64) (*Design, error) {
	t, err := r.Table(ctx, w, candidates)
	if err != nil {
		return nil, err
	}
	return t.greedyDesign(ctx, budget)
}

// Table returns BuildPairTable(ctx, cm, w, candidates), costing only the
// queries and cells no earlier call costed. A workload listing one query
// pointer twice gets BuildPairTable's own table.
func (r *PairRows) Table(ctx context.Context, w *workload.Workload, candidates []Structure) (*PairTable, error) {
	if r.k == nil {
		return BuildPairTable(ctx, r.cm, w, candidates)
	}
	sc := &r.sc
	t := &PairTable{Pool: sc.dedup(candidates)}
	if len(t.Pool) == 0 {
		return t, nil
	}

	t.Queries = make([]*workload.Query, 0, len(w.Items))
	t.Weights = make([]float64, 0, len(w.Items))
	t.Base = make([]float64, 0, len(w.Items))
	var idx []int32 // kernel index of each table query
	defer func() {
		for _, x := range idx {
			r.local[x] = -1
		}
	}()
	for _, it := range w.Items {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("costing %s: %w", it.Q, err)
		}
		x, ok := r.pos[it.Q]
		if !ok {
			c, err := r.k.Add(it.Q)
			switch {
			case err == nil:
				x = int32(len(r.base))
				r.base = append(r.base, c)
				r.local = append(r.local, -1)
			case errors.Is(err, ErrUnsupported):
				x = -1
			default:
				return nil, fmt.Errorf("costing %s: %w", it.Q, err)
			}
			r.pos[it.Q] = x
		}
		if x < 0 {
			continue
		}
		if r.local[x] >= 0 {
			return BuildPairTable(ctx, r.cm, w, candidates)
		}
		r.local[x] = int32(len(t.Queries))
		idx = append(idx, x)
		t.Queries = append(t.Queries, it.Q)
		t.Weights = append(t.Weights, it.Weight)
		t.Base = append(t.Base, r.base[x])
	}

	n := r.k.Len()
	sc.helps, sc.costs, sc.ends = sc.helps[:0], sc.costs[:0], sc.ends[:0]
	for _, s := range t.Pool {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("costing pairs: %w", err)
		}
		row := r.rows[s.Key()]
		if row == nil {
			row = &pairRow{}
			r.rows[s.Key()] = row
		}
		if row.from < n {
			r.qis, r.costs = r.k.AppendPairs(r.qis[:0], r.costs[:0], s, row.from)
			row.qis = slices.Grow(row.qis, len(r.qis))
			for _, x := range r.qis {
				row.qis = append(row.qis, int32(x))
			}
			row.costs = append(row.costs, r.costs...)
			row.from = n
		}
		start := len(sc.helps)
		for j, x := range row.qis {
			if qi := r.local[x]; qi >= 0 && row.costs[j] < t.Base[qi] {
				sc.helps = append(sc.helps, int(qi))
				sc.costs = append(sc.costs, row.costs[j])
			}
		}
		// The row is ascending by kernel index, the table by query index;
		// the two orders mostly agree, so an insertion sort is cheap.
		for i := start + 1; i < len(sc.helps); i++ {
			for j := i; j > start && sc.helps[j] < sc.helps[j-1]; j-- {
				sc.helps[j], sc.helps[j-1] = sc.helps[j-1], sc.helps[j]
				sc.costs[j], sc.costs[j-1] = sc.costs[j-1], sc.costs[j]
			}
		}
		sc.ends = append(sc.ends, len(sc.helps))
	}
	return sc.table(t), nil
}
