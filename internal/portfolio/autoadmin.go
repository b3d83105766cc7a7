// Package portfolio implements designer diversity for the robust loop:
// an AutoAdmin-style candidate-pruning greedy designer, an ILP-exact
// designer lowering structure selection to the branch-and-bound solver, and
// a Portfolio runner that races member designers concurrently and keeps the
// design that costs least on the input workload.
//
// CliffGuard treats the nominal designer as a black box (Section 3 of the
// paper), so diversity in that slot is free robustness: the robust loop
// cannot do worse by being offered more candidate designs, and the portfolio
// enforces a deterministic "never deploy a strictly worse design" selection
// rule. All three designers implement designer.Designer and are bit-identical
// at any parallelism.
package portfolio

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// CandidateProvider exposes the candidate structure pool a workload induces.
type CandidateProvider = designer.CandidateProvider

// AutoAdmin is a candidate-pruning greedy designer in the classic
// Chaudhuri/Narasayya AutoAdmin shape: select the best few candidates per
// query in isolation, union them into a pruned pool, then run a bounded
// (k, m)-style greedy — an exhaustive seed over all subsets of size at most
// SeedSize, completed greedily by benefit per byte — within the storage
// budget.
//
// Compared to the engines' native greedy designers it prunes harder (only
// structures that are near-best for at least one query survive to selection)
// and its exhaustive seed escapes the first-pick local optima pure greedy
// falls into; the optimality-oracle tests measure both against the ILP
// optimum.
type AutoAdmin struct {
	// Cost is the engine's what-if cost model.
	Cost designer.CostModel
	// Provider generates the raw candidate pool (the engine's nominal
	// designer).
	Provider CandidateProvider
	// Budget is the storage budget in bytes.
	Budget int64
	// PerQuery is m: how many best candidates each query keeps in the
	// pruning pass (default 3).
	PerQuery int
	// SeedSize is k: the exhaustive-seed subset size of the greedy merge
	// (default 2). Raising it trades design time for quality.
	SeedSize int
	// MaxPool bounds the pruned union pool (default 64); the exhaustive seed
	// is quadratic in it at the default SeedSize.
	MaxPool int
}

// NewAutoAdmin returns an AutoAdmin designer with default knobs.
func NewAutoAdmin(cost designer.CostModel, provider CandidateProvider, budget int64) *AutoAdmin {
	return &AutoAdmin{Cost: cost, Provider: provider, Budget: budget}
}

// Name implements designer.Designer.
func (a *AutoAdmin) Name() string { return "AutoAdmin" }

func (a *AutoAdmin) perQuery() int {
	if a.PerQuery > 0 {
		return a.PerQuery
	}
	return 3
}

func (a *AutoAdmin) seedSize() int {
	if a.SeedSize > 0 {
		return a.SeedSize
	}
	return 2
}

func (a *AutoAdmin) maxPool() int {
	if a.MaxPool > 0 {
		return a.MaxPool
	}
	return 64
}

// Design implements designer.Designer.
func (a *AutoAdmin) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w == nil || w.Len() == 0 {
		return nil, errors.New("portfolio: AutoAdmin: empty workload")
	}
	cw := designer.CompressByTemplate(w)
	t, err := designer.BuildPairTable(ctx, a.Cost, cw, a.Provider.Candidates(cw))
	if err != nil {
		return nil, fmt.Errorf("portfolio: AutoAdmin: %w", err)
	}
	return a.greedyKM(ctx, t, t.Top(a.pruneCandidates(t), a.maxPool()))
}

// pruneCandidates is the AutoAdmin per-query candidate selection: each query
// keeps its PerQuery best structures by standalone benefit, and the pruned
// pool is their union in original candidate order (deterministic: benefit
// ties keep the earlier candidate). Design caps the union at MaxPool by
// benefit per byte.
func (a *AutoAdmin) pruneCandidates(t *designer.PairTable) []int {
	m := a.perQuery()
	type scored struct {
		si      int
		benefit float64
	}
	// Transpose the kept cells: byQuery[start[qi]:start[qi+1]] are the
	// structures that beat Queries[qi]'s base cost, in pool order. A cell
	// outside Helps has no positive benefit, so it is never a pick.
	start := make([]int, len(t.Queries)+1)
	for _, helps := range t.Helps {
		for _, qi := range helps {
			start[qi+1]++
		}
	}
	for qi := range t.Queries {
		start[qi+1] += start[qi]
	}
	byQuery := make([]scored, start[len(t.Queries)])
	next := slices.Clone(start[:len(t.Queries)])
	for si, helps := range t.Helps {
		for k, qi := range helps {
			byQuery[next[qi]] = scored{si, t.Base[qi] - t.HelpCost[si][k]}
			next[qi]++
		}
	}
	keep := make([]bool, len(t.Pool))
	for qi := range t.Queries {
		best := byQuery[start[qi]:start[qi+1]]
		slices.SortStableFunc(best, func(x, y scored) int { return cmp.Compare(y.benefit, x.benefit) })
		if len(best) > m {
			best = best[:m]
		}
		for _, s := range best {
			keep[s.si] = true
		}
	}
	var pruned []int
	for si, k := range keep {
		if k {
			pruned = append(pruned, si)
		}
	}
	return pruned
}

// greedyKM runs the bounded (k, m)-greedy merge over the pruned pool: an
// every feasible subset of size at most SeedSize is taken as a seed
// (including the empty one), each seed is completed greedily by benefit per
// byte, and the best completed configuration by exact objective
// (min-composition over the pair table) wins. Completing every seed — not
// just the best-scoring one — is what lets the merge escape size-blind
// seeds: a seed with a great raw objective can eat the budget and strand
// the completion. Seeds are enumerated in lexicographic index order and
// improvements are strict, so ties always keep the earliest configuration —
// deterministic by construction.
func (a *AutoAdmin) greedyKM(ctx context.Context, t *designer.PairTable, pruned []int) (*designer.Design, error) {
	var bestSel []int
	bestObj := math.Inf(1)
	var rec func(start int, chosen []int, used int64, cur []float64) error
	rec = func(start int, chosen []int, used int64, cur []float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		taken := make([]bool, len(t.Pool))
		for _, si := range chosen {
			taken[si] = true
		}
		done := append([]float64(nil), cur...)
		picks, err := t.Greedy(ctx, pruned, taken, done, used, a.Budget)
		if err != nil {
			return err
		}
		if obj := t.Objective(done); obj < bestObj {
			bestObj = obj
			bestSel = append(append([]int(nil), chosen...), picks...)
		}
		if len(chosen) >= a.seedSize() {
			return nil
		}
		for i := start; i < len(pruned); i++ {
			si := pruned[i]
			sz := t.Pool[si].SizeBytes()
			if used+sz > a.Budget {
				continue
			}
			next := append([]float64(nil), cur...)
			t.Lower(next, si)
			if err := rec(i+1, append(chosen, si), used+sz, next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, nil, 0, append([]float64(nil), t.Base...)); err != nil {
		return nil, err
	}
	return t.Design(bestSel), nil
}
