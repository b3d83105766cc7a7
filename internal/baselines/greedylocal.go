package baselines

import (
	"context"

	"cliffguard/internal/designer"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// GreedyLocalSearch is the greedy variant of OptimalLocalSearch described in
// the paper's technical report (footnote 10): like OptimalLocalSearch it
// unions the sampled neighbor workloads into a representative expected
// workload, but it then selects structures with the ordinary greedy
// benefit-per-byte loop instead of solving the integer program.
type GreedyLocalSearch struct {
	Nominal designer.Designer // must also implement CandidateProvider
	Cost    designer.CostModel
	Sampler *sample.Sampler
	Budget  int64
	Gamma   float64
	Samples int
	Seed    int64
}

// Name implements designer.Designer.
func (g *GreedyLocalSearch) Name() string { return "GreedyLocalSearch" }

// Design implements designer.Designer.
func (g *GreedyLocalSearch) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	union, provider, err := localSearchUnion(g.Nominal, g.Sampler, w, g.Gamma, g.Samples, g.Seed)
	if err != nil {
		return nil, err
	}
	return designer.GreedySelect(ctx, g.Cost, union, provider.Candidates(union), g.Budget)
}
