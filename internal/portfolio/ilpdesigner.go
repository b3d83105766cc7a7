package portfolio

import (
	"context"
	"errors"
	"fmt"

	"cliffguard/internal/designer"
	"cliffguard/internal/ilp"
	"cliffguard/internal/workload"
)

// ILPDesigner lowers any (engine, workload, budget) instance to an
// ilp.Problem through the what-if cost model and solves it with the exact
// branch-and-bound solver. When the node budget holds the returned design is
// provably optimal over the candidate pool (Result.Exact); when it does not,
// the solver's greedy incumbent — a benefit-per-byte greedy completion —
// is returned with Exact=false.
//
// The candidate pool comes from the engine's nominal designer, so "optimal"
// means optimal structure selection, not optimal structure generation; the
// optimality-oracle tests exploit exactly this to pin the greedy designers
// against a measurable optimum.
type ILPDesigner struct {
	// Cost is the engine's what-if cost model.
	Cost designer.CostModel
	// Provider generates the candidate pool.
	Provider CandidateProvider
	// Budget is the storage budget in bytes.
	Budget int64
	// MaxNodes caps branch-and-bound nodes (default 200k, ilp.Solve's
	// default). Exceeding it degrades to the greedy incumbent, Exact=false.
	MaxNodes int
	// MaxCandidates caps the pool fed to the solver (default 64): the
	// highest total-weighted-benefit-per-byte candidates survive,
	// deterministic ties by pool order. Branch-and-bound is exponential in
	// the pool in the worst case; the cap keeps design time bounded on
	// template-rich workloads. Set negative for no cap.
	MaxCandidates int
}

// NewILPDesigner returns an ILP-exact designer with default knobs.
func NewILPDesigner(cost designer.CostModel, provider CandidateProvider, budget int64) *ILPDesigner {
	return &ILPDesigner{Cost: cost, Provider: provider, Budget: budget}
}

// Result is DesignExact's output: the design plus the solver's optimality
// proof status.
type Result struct {
	Design *designer.Design
	// Exact reports that the design is provably optimal over the candidate
	// pool; false means the node budget was exceeded and the design is the
	// solver's greedy completion.
	Exact bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Name implements designer.Designer.
func (d *ILPDesigner) Name() string { return "ILP" }

// Design implements designer.Designer, discarding the exactness certificate.
func (d *ILPDesigner) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	r, err := d.DesignExact(ctx, w)
	if err != nil {
		return nil, err
	}
	return r.Design, nil
}

func (d *ILPDesigner) maxCandidates() int {
	if d.MaxCandidates == 0 {
		return 64
	}
	return d.MaxCandidates
}

// DesignExact lowers the instance to an ilp.Problem and solves it, surfacing
// whether the solution is provably optimal.
func (d *ILPDesigner) DesignExact(ctx context.Context, w *workload.Workload) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w == nil || w.Len() == 0 {
		return nil, errors.New("portfolio: ILP: empty workload")
	}
	cw := designer.CompressByTemplate(w)
	t, err := designer.BuildPairTable(ctx, d.Cost, cw, d.Provider.Candidates(cw))
	if err != nil {
		return nil, fmt.Errorf("portfolio: ILP: %w", err)
	}
	if len(t.Queries) == 0 {
		return &Result{Design: designer.NewDesign(), Exact: true}, nil
	}
	keep := t.Top(t.Indices(), d.maxCandidates())
	sol, err := ilp.Solve(t.Problem(keep, d.Budget), d.MaxNodes)
	if err != nil {
		return nil, fmt.Errorf("portfolio: ILP: %w", err)
	}
	sel := make([]int, len(sol.Chosen))
	for i, ki := range sol.Chosen {
		sel[i] = keep[ki]
	}
	return &Result{Design: t.Design(sel), Exact: sol.Exact, Nodes: sol.Nodes}, nil
}
