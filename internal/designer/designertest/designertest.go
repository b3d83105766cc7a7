// Package designertest checks the contracts an engine promises the designer
// package, on whatever queries and candidate pools the engine's own tests
// supply: designer.Server's "a structure that does not serve q leaves q's
// cost bit-identical", and designer.BuildPairTable's sparse table against a
// dense oracle that costs every pair.
package designertest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// R1Month returns the canonical warehouse schema and the first 4-week
// window of the R1 preset for seed. Generating two months yields the same
// first month as the full 13-month preset, in a fraction of the time.
func R1Month(seed int64) (*schema.Schema, *workload.Workload, error) {
	s := datagen.Warehouse(1)
	cfg := wlgen.R1Config(s, seed)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	set, err := cfg.Generate()
	if err != nil {
		return nil, nil, err
	}
	return s, set.Months[0], nil
}

// Mutants returns w's queries followed by one sampler mutant of each, drawn
// with a rand seeded by seed: near misses of the queries a pool was built
// for, where a structure's applicability test is most likely to be wrong.
func Mutants(s *schema.Schema, w *workload.Workload, seed int64) []*workload.Query {
	rng := rand.New(rand.NewSource(seed))
	m := sample.NewMutator(s)
	out := make([]*workload.Query, 0, 2*w.Len())
	for _, it := range w.Items {
		out = append(out, it.Q)
	}
	for _, it := range w.Items {
		out = append(out, m.Mutate(rng, it.Q))
	}
	return out
}

// RandomDesigns draws n designs of up to k structures each from pool with a
// rand seeded by seed.
func RandomDesigns(pool []designer.Structure, n, k int, seed int64) []*designer.Design {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*designer.Design, n)
	for i := range out {
		var picks []designer.Structure
		for j := 0; j < k && len(pool) > 0; j++ {
			picks = append(picks, pool[rng.Intn(len(pool))])
		}
		out[i] = designer.NewDesign(picks...)
	}
	return out
}

// ServesContract checks every (s, q) pair of pool × queries where s
// implements designer.Server and does not serve q: cm.Cost(q, {s}) must
// equal cm.Cost(q, nil) bit for bit, and cm.Cost(q, D ∪ {s}) must equal
// cm.Cost(q, D) for every D of designs. Two ErrUnsupported results count as
// equal. It returns the number of pairs checked and the first violation.
func ServesContract(ctx context.Context, cm designer.CostModel, queries []*workload.Query, pool []designer.Structure, designs []*designer.Design) (int, error) {
	checked := 0
	for _, s := range pool {
		srv, ok := s.(designer.Server)
		if !ok {
			continue
		}
		for _, q := range queries {
			if srv.Serves(q) {
				continue
			}
			checked++
			for _, d := range append([]*designer.Design{nil}, designs...) {
				without, errWithout := cm.Cost(ctx, q, d)
				with, errWith := cm.Cost(ctx, q, d.With(s))
				if err := sameCost(without, errWithout, with, errWith); err != nil {
					return checked, fmt.Errorf("%s does not serve %s, yet adding it to %v changes the cost: %w",
						s.Key(), q, d, err)
				}
			}
		}
	}
	return checked, nil
}

// Idle returns the keys of the designer.Server structures in pool that
// serve none of queries. A candidate pool generated from queries should
// have none: a Serves that rejects every query its structure was built for
// is too narrow, a fault ServesContract cannot see once the engine's Cost
// skips structures through the same Serves.
func Idle(pool []designer.Structure, queries []*workload.Query) []string {
	var idle []string
	for _, s := range pool {
		srv, ok := s.(designer.Server)
		if ok && !slices.ContainsFunc(queries, srv.Serves) {
			idle = append(idle, s.Key())
		}
	}
	return idle
}

func sameCost(a float64, errA error, b float64, errB error) error {
	switch {
	case errA != nil || errB != nil:
		if errors.Is(errA, designer.ErrUnsupported) && errors.Is(errB, designer.ErrUnsupported) {
			return nil
		}
		return fmt.Errorf("errors %v and %v", errA, errB)
	case math.Float64bits(a) != math.Float64bits(b):
		return fmt.Errorf("%v became %v", a, b)
	}
	return nil
}

// DensePairTable checks designer.BuildPairTable(cm, w, candidates) against
// a dense oracle that calls cm for every query under the empty design and
// for every (structure, query) pair: the pool, queries and weights match,
// Base and Pair match cell for cell bit for bit, and Helps[s] is exactly
// {q : Pair[s][q] < Base[q]}, ascending.
func DensePairTable(ctx context.Context, cm designer.CostModel, w *workload.Workload, candidates []designer.Structure) error {
	t, err := designer.BuildPairTable(ctx, cm, w, candidates)
	if err != nil {
		return err
	}
	pool := designer.NewDesign(candidates...).Structures
	if len(pool) != len(t.Pool) {
		return fmt.Errorf("pool of %d structures, want %d", len(t.Pool), len(pool))
	}
	for si, s := range pool {
		if t.Pool[si].Key() != s.Key() {
			return fmt.Errorf("pool[%d] = %s, want %s", si, t.Pool[si].Key(), s.Key())
		}
	}
	if len(pool) == 0 {
		return nil
	}
	var queries []*workload.Query
	var weights, base []float64
	for _, it := range w.Items {
		c, err := cm.Cost(ctx, it.Q, nil)
		if errors.Is(err, designer.ErrUnsupported) {
			continue
		}
		if err != nil {
			return err
		}
		queries = append(queries, it.Q)
		weights = append(weights, it.Weight)
		base = append(base, c)
	}
	if !slices.Equal(t.Queries, queries) || !slices.Equal(t.Weights, weights) {
		return fmt.Errorf("table keeps %d queries, the oracle %d (or their order or weights differ)",
			len(t.Queries), len(queries))
	}
	for qi, c := range base {
		if math.Float64bits(t.Base[qi]) != math.Float64bits(c) {
			return fmt.Errorf("Base[%d] = %v, oracle %v", qi, t.Base[qi], c)
		}
	}
	for si, s := range pool {
		d := designer.NewDesign(s)
		var helps []int
		for qi, q := range queries {
			c, err := cm.Cost(ctx, q, d)
			if errors.Is(err, designer.ErrUnsupported) {
				c = math.Inf(1)
			} else if err != nil {
				return err
			}
			if math.Float64bits(t.Pair[si][qi]) != math.Float64bits(c) {
				return fmt.Errorf("Pair[%d][%d] (%s, %s) = %v, oracle %v", si, qi, s.Key(), q, t.Pair[si][qi], c)
			}
			if c < base[qi] {
				helps = append(helps, qi)
			}
		}
		if !slices.Equal(t.Helps[si], helps) {
			return fmt.Errorf("Helps[%d] (%s) = %v, want %v", si, s.Key(), t.Helps[si], helps)
		}
	}
	return nil
}

// ServedPairs counts the cost-model calls BuildPairTable makes for the pair
// cells of w under pool (deduplicated by key): one per pair whose structure
// does not implement designer.Server or serves the query, over the queries
// whose empty-design cost cm supports.
func ServedPairs(ctx context.Context, cm designer.CostModel, w *workload.Workload, pool []designer.Structure) (int, error) {
	n := 0
	dedup := designer.NewDesign(pool...).Structures
	for _, it := range w.Items {
		if _, err := cm.Cost(ctx, it.Q, nil); errors.Is(err, designer.ErrUnsupported) {
			continue
		} else if err != nil {
			return 0, err
		}
		for _, s := range dedup {
			if srv, ok := s.(designer.Server); !ok || srv.Serves(it.Q) {
				n++
			}
		}
	}
	return n, nil
}
