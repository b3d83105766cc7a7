package designer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"cliffguard/internal/ilp"
	"cliffguard/internal/workload"
)

// CandidateProvider is implemented by the engines' nominal designers: it
// exposes the candidate structure pool a workload induces.
type CandidateProvider interface {
	Candidates(w *workload.Workload) []Structure
}

// PairTable is the what-if table every structure-selection designer works
// from. The engines are min-composed — a query's cost under a design is the
// minimum of its per-structure access-path costs — so Base[q] (the cost of
// Queries[q] under the empty design) and Pair[s][q] (its cost with Pool[s]
// alone) determine the cost of every design over the pool. Each designer
// differs only in how it searches the table: GreedySelect completes greedily
// by benefit per byte, AutoAdmin prunes per query and seeds exhaustively,
// the ILP designers lower it to an ilp.Problem.
//
// BuildPairTable's error contract, shared by every designer built on it:
//   - Pool is deduplicated by key, keeping first occurrences (nil skipped).
//   - An empty pool makes no cost-model call and leaves the table empty.
//   - A query whose base cost returns ErrUnsupported drops out of Queries: it
//     costs the same under every design, so it cannot change a selection.
//   - A singleton pair returning ErrUnsupported is +Inf: that structure never
//     serves that query.
//   - Any other error, cancellation included, aborts the build, wrapped.
//   - A structure that implements Server and does not serve q is Base[q],
//     with no cost-model call.
//
// Helps[s] lists, ascending, the query indices where Pool[s] alone beats the
// base cost (Pair[s][q] < Base[q]). The search steps (BenefitPerByte,
// Greedy, Lower) walk only those cells: every search starts from Base and
// only lowers it, so a cell outside Helps[s] can never lower a running
// minimum, and skipping it leaves every sum's terms and order unchanged.
// Pair stays dense for the designers that read whole columns.
type PairTable struct {
	Pool    []Structure
	Queries []*workload.Query
	Weights []float64
	Base    []float64
	Pair    [][]float64
	Helps   [][]int
}

// BuildPairTable costs every query of w under the empty design, then every
// (structure, query) pair — structure outer, query inner — with the
// structure alone, skipping the pairs a Server structure does not serve.
func BuildPairTable(ctx context.Context, cm CostModel, w *workload.Workload, candidates []Structure) (*PairTable, error) {
	t := &PairTable{Pool: make([]Structure, 0, len(candidates))}
	seen := make(map[string]bool, len(candidates))
	for _, c := range candidates {
		if c == nil || seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		t.Pool = append(t.Pool, c)
	}
	if len(t.Pool) == 0 {
		return t, nil
	}

	t.Queries = make([]*workload.Query, 0, len(w.Items))
	t.Weights = make([]float64, 0, len(w.Items))
	t.Base = make([]float64, 0, len(w.Items))
	for _, it := range w.Items {
		c, err := cm.Cost(ctx, it.Q, nil)
		if err != nil {
			if errors.Is(err, ErrUnsupported) {
				continue
			}
			return nil, fmt.Errorf("costing %s: %w", it.Q, err)
		}
		t.Queries = append(t.Queries, it.Q)
		t.Weights = append(t.Weights, it.Weight)
		t.Base = append(t.Base, c)
	}

	nq := len(t.Queries)
	cells := make([]float64, len(t.Pool)*nq)
	t.Pair = make([][]float64, len(t.Pool))
	t.Helps = make([][]int, len(t.Pool))
	var helps []int // one backing array; each row's slice is capped
	for si, s := range t.Pool {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("costing pairs: %w", err)
		}
		row := cells[si*nq : (si+1)*nq : (si+1)*nq]
		d := NewDesign(s)
		srv, sparse := s.(Server)
		start := len(helps)
		for qi, q := range t.Queries {
			c := t.Base[qi]
			if !sparse || srv.Serves(q) {
				var err error
				if c, err = cm.Cost(ctx, q, d); err != nil {
					if !errors.Is(err, ErrUnsupported) {
						return nil, fmt.Errorf("costing %s with %s: %w", q, s.Key(), err)
					}
					c = math.Inf(1)
				}
			}
			row[qi] = c
			if c < t.Base[qi] {
				helps = append(helps, qi)
			}
		}
		t.Pair[si] = row
		t.Helps[si] = helps[start:len(helps):len(helps)]
	}
	return t, nil
}

// Indices returns every pool index, ascending.
func (t *PairTable) Indices() []int {
	idx := make([]int, len(t.Pool))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// BenefitPerByte is structure si's standalone benefit over the empty design,
// sum_q Weights[q] * max(Base[q] - Pair[si][q], 0), per byte of its size.
func (t *PairTable) BenefitPerByte(si int) float64 {
	var total float64
	row := t.Pair[si]
	for _, qi := range t.Helps[si] {
		total += t.Weights[qi] * (t.Base[qi] - row[qi])
	}
	return total / float64(max(t.Pool[si].SizeBytes(), 1))
}

// Top returns the k indices of idx (ascending) with the highest
// BenefitPerByte, ties to the earlier index, in ascending order. It returns
// idx itself when k < 0 or idx already has at most k entries.
func (t *PairTable) Top(idx []int, k int) []int {
	if k < 0 || len(idx) <= k {
		return idx
	}
	score := make([]float64, len(t.Pool))
	for _, si := range idx {
		score[si] = t.BenefitPerByte(si)
	}
	top := append([]int(nil), idx...)
	sort.SliceStable(top, func(i, j int) bool { return score[top[i]] > score[top[j]] })
	top = top[:k]
	sort.Ints(top)
	return top
}

// Greedy extends a selection by benefit per byte: among the untaken indices
// of idx that fit the budget, repeatedly take the one whose reduction of
// the per-query running minimum cur, per byte, is largest (ties to the
// earliest in idx), until nothing fits or helps. cur must not exceed Base
// anywhere. It updates taken and cur in place and returns the picks in
// order.
func (t *PairTable) Greedy(ctx context.Context, idx []int, taken []bool, cur []float64, used, budget int64) ([]int, error) {
	var picks []int
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestIdx := -1
		bestScore := 0.0
		for _, si := range idx {
			if taken[si] {
				continue
			}
			sz := t.Pool[si].SizeBytes()
			if used+sz > budget {
				continue
			}
			var gain float64
			row := t.Pair[si]
			for _, qi := range t.Helps[si] {
				if c := row[qi]; c < cur[qi] {
					gain += t.Weights[qi] * (cur[qi] - c)
				}
			}
			if gain <= 0 {
				continue
			}
			score := gain / float64(max(sz, 1))
			if bestIdx < 0 || score > bestScore {
				bestIdx, bestScore = si, score
			}
		}
		if bestIdx < 0 {
			return picks, nil
		}
		taken[bestIdx] = true
		t.Lower(cur, bestIdx)
		used += t.Pool[bestIdx].SizeBytes()
		picks = append(picks, bestIdx)
	}
}

// Lower adds structure si to the running per-query minimum cur, which must
// not exceed Base anywhere.
func (t *PairTable) Lower(cur []float64, si int) {
	row := t.Pair[si]
	for _, qi := range t.Helps[si] {
		if c := row[qi]; c < cur[qi] {
			cur[qi] = c
		}
	}
}

// Objective is the weighted workload cost of a per-query running minimum.
func (t *PairTable) Objective(cur []float64) float64 {
	var total float64
	for qi, w := range t.Weights {
		total += w * cur[qi]
	}
	return total
}

// Design builds the design of the selected pool indices, in order. The
// indices must be distinct (the pool itself is deduplicated).
func (t *PairTable) Design(sel []int) *Design {
	d := &Design{}
	if len(sel) > 0 {
		d.Structures = make([]Structure, len(sel))
		for i, si := range sel {
			d.Structures[i] = t.Pool[si]
		}
	}
	return d
}

// Problem lowers the table, restricted to the pool indices keep, to the
// 0/1 integer program: structure k of the problem is Pool[keep[k]].
func (t *PairTable) Problem(keep []int, budget int64) *ilp.Problem {
	p := &ilp.Problem{
		Weights: t.Weights,
		Base:    t.Base,
		Cost:    make([][]float64, len(t.Queries)),
		Size:    make([]int64, len(keep)),
		Budget:  budget,
	}
	for ki, si := range keep {
		p.Size[ki] = t.Pool[si].SizeBytes()
	}
	for qi := range t.Queries {
		row := make([]float64, len(keep))
		for ki, si := range keep {
			row[ki] = t.Pair[si][qi]
		}
		p.Cost[qi] = row
	}
	return p
}
