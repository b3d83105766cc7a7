// Package baselines implements the comparison designers of Section 6.1:
// NoDesign, FutureKnowingDesigner, MajorityVoteDesigner, and
// OptimalLocalSearchDesigner. Together with the engines' nominal designers
// (ExistingDesigner) and CliffGuard itself, they make up the six algorithms
// of Figures 7, 10 and 15.
//
// MajorityVote and OptimalLocalSearch share CliffGuard's neighborhood
// sampling but replace its principled descent with greedy/local-search
// heuristics — the paper uses them to attribute CliffGuard's improvement to
// its robust moves rather than to neighborhood exploration alone.
package baselines

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"cliffguard/internal/designer"
	"cliffguard/internal/ilp"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// NoDesign returns the empty design: every query runs on the base access
// path. It is the latency upper bound of the experiments.
type NoDesign struct{}

// Name implements designer.Designer.
func (NoDesign) Name() string { return "NoDesign" }

// Design implements designer.Designer.
func (NoDesign) Design(context.Context, *workload.Workload) (*designer.Design, error) {
	return designer.NewDesign(), nil
}

// FutureKnowing wraps a nominal designer; the experiment harness feeds it
// the future window W_{i+1} instead of W_i, making it the hypothetical ideal
// that knows exactly which queries are coming.
type FutureKnowing struct {
	Inner designer.Designer
}

// Name implements designer.Designer.
func (f *FutureKnowing) Name() string { return "FutureKnowing" }

// Design implements designer.Designer (the harness supplies the future
// workload as w).
func (f *FutureKnowing) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	return f.Inner.Design(ctx, w)
}

// MajorityVote is the sensitivity-analysis baseline: design each sampled
// neighbor workload nominally, then keep the structures that appear in the
// most neighbor designs (they are the ones least brittle to change), subject
// to the budget.
type MajorityVote struct {
	Nominal designer.Designer
	Sampler *sample.Sampler
	Budget  int64
	Gamma   float64
	Samples int
	Seed    int64
}

// Name implements designer.Designer.
func (m *MajorityVote) Name() string { return "MajorityVote" }

// Design implements designer.Designer.
func (m *MajorityVote) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w == nil || w.Len() == 0 {
		return nil, errors.New("baselines: empty workload")
	}
	samples := m.Samples
	if samples <= 0 {
		samples = 20
	}
	rng := rand.New(rand.NewSource(m.Seed))
	neighborhood, err := m.Sampler.Neighborhood(rng, w, m.Gamma, samples)
	if err != nil {
		return nil, fmt.Errorf("baselines: majority-vote sampling: %w", err)
	}
	neighborhood = append(neighborhood, w)

	votes := make(map[string]int)
	instances := make(map[string]designer.Structure)
	var order []string
	for _, wn := range neighborhood {
		d, err := m.Nominal.Design(ctx, wn)
		if err != nil {
			return nil, fmt.Errorf("baselines: majority-vote nominal design: %w", err)
		}
		for _, s := range d.Structures {
			if votes[s.Key()] == 0 {
				instances[s.Key()] = s
				order = append(order, s.Key())
			}
			votes[s.Key()]++
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if votes[order[i]] != votes[order[j]] {
			return votes[order[i]] > votes[order[j]]
		}
		return order[i] < order[j] // deterministic tie-break
	})

	out := designer.NewDesign()
	var used int64
	for _, key := range order {
		s := instances[key]
		if used+s.SizeBytes() > m.Budget {
			continue
		}
		out = out.With(s)
		used += s.SizeBytes()
	}
	return out, nil
}

// CandidateProvider is implemented by nominal designers that can expose
// their candidate structure pool (both engine designers do); the local-search
// baselines require it.
type CandidateProvider = designer.CandidateProvider

// localSearchUnion is the preamble the local-search baselines share: it
// samples the Γ-neighborhood of w and unions it with w into a representative
// expected workload, each neighbor normalized so no single sample dominates,
// compressed by template. It also resolves the nominal designer's candidate
// provider.
func localSearchUnion(nominal designer.Designer, s *sample.Sampler, w *workload.Workload, gamma float64, samples int, seed int64) (*workload.Workload, CandidateProvider, error) {
	if w == nil || w.Len() == 0 {
		return nil, nil, errors.New("baselines: empty workload")
	}
	provider, ok := nominal.(CandidateProvider)
	if !ok {
		return nil, nil, fmt.Errorf("baselines: %s does not expose candidates", nominal.Name())
	}
	if samples <= 0 {
		samples = 20
	}
	neighborhood, err := s.Neighborhood(rand.New(rand.NewSource(seed)), w, gamma, samples)
	if err != nil {
		return nil, nil, fmt.Errorf("baselines: local-search sampling: %w", err)
	}
	union := w.Scale(1)
	for _, wn := range neighborhood {
		t := wn.TotalWeight()
		if t <= 0 {
			continue
		}
		union = union.Union(wn.Scale(w.TotalWeight() / (t * float64(len(neighborhood)))))
	}
	return designer.CompressByTemplate(union), provider, nil
}

// OptimalLocalSearch samples the neighborhood, unions the neighbor queries
// into a representative expected workload, and solves an integer program for
// the optimal structure set for that union within the budget.
type OptimalLocalSearch struct {
	Nominal    designer.Designer // must also implement CandidateProvider
	Cost       designer.CostModel
	Sampler    *sample.Sampler
	Budget     int64
	Gamma      float64
	Samples    int
	Seed       int64
	MaxILPNode int // branch-and-bound node cap (default 200k)
}

// Name implements designer.Designer.
func (o *OptimalLocalSearch) Name() string { return "OptimalLocalSearch" }

// Design implements designer.Designer.
func (o *OptimalLocalSearch) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	union, provider, err := localSearchUnion(o.Nominal, o.Sampler, w, o.Gamma, o.Samples, o.Seed)
	if err != nil {
		return nil, err
	}
	t, err := designer.BuildPairTable(ctx, o.Cost, union, provider.Candidates(union))
	if err != nil {
		return nil, fmt.Errorf("baselines: local search: %w", err)
	}
	sol, err := ilp.Solve(t.Problem(t.Indices(), o.Budget), o.MaxILPNode)
	if err != nil {
		return nil, fmt.Errorf("baselines: ILP: %w", err)
	}
	return t.Design(sol.Chosen), nil
}
