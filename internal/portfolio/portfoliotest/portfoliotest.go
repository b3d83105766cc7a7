// Package portfoliotest provides an optimality oracle for small
// structure-selection instances: it enumerates every feasible subset of a
// bounded candidate pool with the real what-if cost model, so tests can
// measure exactly how far a designer lands from the true optimum over that
// pool, and cross-check the ILP solver's Exact certificate against brute
// force. Enumeration is exponential in the pool, hence the MaxPool bound.
package portfoliotest

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cliffguard/internal/designer"
	"cliffguard/internal/ilp"
	"cliffguard/internal/workload"
)

// MaxPool bounds the candidate pool Enumerate accepts (2^12 = 4096 subsets,
// each a full workload evaluation).
const MaxPool = 12

// Instance is one small oracle instance: a workload, a fixed candidate pool,
// a storage budget, and the engine's cost model. The pool is the whole
// universe — "optimal" below always means optimal subset of Pool.
type Instance struct {
	Cost   designer.CostModel
	W      *workload.Workload
	Pool   []designer.Structure
	Budget int64
}

// FixedProvider adapts a fixed pool to the CandidateProvider contract, so
// the pruning and ILP designers can be pinned to exactly the oracle's
// universe.
type FixedProvider []designer.Structure

// Candidates returns the fixed pool regardless of the workload.
func (p FixedProvider) Candidates(*workload.Workload) []designer.Structure {
	return []designer.Structure(p)
}

// Optimum is Enumerate's result.
type Optimum struct {
	// Cost is the total weighted workload cost of the best feasible subset.
	Cost float64
	// Subset holds the pool indices (ascending) of the optimal subset; ties
	// keep the first subset in ascending bitmask order, so the result is
	// deterministic.
	Subset []int
	// Feasible counts the budget-feasible subsets enumerated.
	Feasible int
}

// Enumerate evaluates every budget-feasible subset of the pool with the real
// cost model and returns the optimum. This is the ground truth the designers
// are measured against; unlike the ILP surrogate it sees structure
// interactions, because each subset is costed as one whole design.
func (in *Instance) Enumerate(ctx context.Context) (*Optimum, error) {
	n := len(in.Pool)
	if n > MaxPool {
		return nil, fmt.Errorf("portfoliotest: pool of %d exceeds MaxPool %d", n, MaxPool)
	}
	opt := &Optimum{Cost: math.Inf(1)}
	for mask := 0; mask < 1<<n; mask++ {
		var size int64
		var subset []designer.Structure
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += in.Pool[i].SizeBytes()
				subset = append(subset, in.Pool[i])
			}
		}
		if size > in.Budget {
			continue
		}
		opt.Feasible++
		cost, err := in.Evaluate(ctx, designer.NewDesign(subset...))
		if err != nil {
			return nil, err
		}
		if cost < opt.Cost {
			opt.Cost = cost
			opt.Subset = opt.Subset[:0]
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					opt.Subset = append(opt.Subset, i)
				}
			}
		}
	}
	if math.IsInf(opt.Cost, 1) {
		return nil, errors.New("portfoliotest: no feasible subset (is the budget negative?)")
	}
	return opt, nil
}

// Evaluate scores a design on the instance workload: total weighted cost,
// skipping queries the cost model does not support (they cost the same under
// every design, so skipping keeps ratios meaningful). This is the metric
// Enumerate optimizes, so Evaluate(design)/Optimum.Cost is a well-defined
// optimality ratio.
func (in *Instance) Evaluate(ctx context.Context, d *designer.Design) (float64, error) {
	var total float64
	for _, it := range in.W.Items {
		c, err := in.Cost.Cost(ctx, it.Q, d)
		if err != nil {
			if errors.Is(err, designer.ErrUnsupported) {
				continue
			}
			return 0, err
		}
		total += it.Weight * c
	}
	return total, nil
}

// Problem lowers the instance to the surrogate ilp.Problem the same way
// ILPDesigner does, through designer.BuildPairTable over the whole pool.
func (in *Instance) Problem(ctx context.Context) (*ilp.Problem, error) {
	t, err := designer.BuildPairTable(ctx, in.Cost, in.W, in.Pool)
	if err != nil {
		return nil, err
	}
	return t.Problem(t.Indices(), in.Budget), nil
}

// BruteForceObjective computes the surrogate problem's true optimum by
// enumerating every feasible subset under the problem's own objective
// (each query takes its cheapest chosen structure or the base path). It is
// the independent witness for ilp.Solve's Exact certificate.
func BruteForceObjective(p *ilp.Problem) (float64, error) {
	n := len(p.Size)
	if n > MaxPool {
		return 0, fmt.Errorf("portfoliotest: problem with %d structures exceeds MaxPool %d", n, MaxPool)
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		var size int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += p.Size[i]
			}
		}
		if size > p.Budget {
			continue
		}
		var obj float64
		for q := range p.Weights {
			c := p.Base[q]
			for s := 0; s < n; s++ {
				if mask&(1<<s) != 0 && p.Cost[q][s] < c {
					c = p.Cost[q][s]
				}
			}
			obj += p.Weights[q] * c
		}
		if obj < best {
			best = obj
		}
	}
	if math.IsInf(best, 1) {
		return 0, errors.New("portfoliotest: no feasible subset")
	}
	return best, nil
}
