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
	"sync"

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
// for every (structure, query) pair: the pool, queries, weights and Base
// match, Helps[s] is exactly {q : oracle cost of (s, q) < Base[q]},
// ascending, each kept cell (HelpCost) matches the oracle bit for bit, and
// every cell the table does not keep costs at least Base under the oracle
// (an ErrUnsupported pair counts as +Inf).
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
		var costs []float64
		for qi, q := range queries {
			c, err := cm.Cost(ctx, q, d)
			if errors.Is(err, designer.ErrUnsupported) {
				c = math.Inf(1)
			} else if err != nil {
				return err
			}
			if c < base[qi] {
				helps = append(helps, qi)
				costs = append(costs, c)
			}
		}
		if !slices.Equal(t.Helps[si], helps) {
			return fmt.Errorf("Helps[%d] (%s) = %v, want %v", si, s.Key(), t.Helps[si], helps)
		}
		if len(t.HelpCost[si]) != len(costs) {
			return fmt.Errorf("HelpCost[%d] (%s) has %d cells, Helps %d", si, s.Key(), len(t.HelpCost[si]), len(costs))
		}
		for k, c := range costs {
			if got := t.HelpCost[si][k]; math.Float64bits(got) != math.Float64bits(c) {
				return fmt.Errorf("HelpCost[%d][%d] (%s, %s) = %v, oracle %v", si, k, s.Key(), queries[helps[k]], got, c)
			}
		}
	}
	return nil
}

// Kernel checks cm's designer.PairKernel, prepared over queries, against
// cm.Cost for every structure of pool: the cells a structure reports are
// ascending, each is a query the structure serves (when it implements
// designer.Server) at cm.Cost(q, {s}) bit for bit, and every query it does
// not report costs the same under {s} as under the empty design, or is
// ErrUnsupported under both. It also requires the kernel to report every
// query whose cost {s} lowers. It returns the number of cells reported.
func Kernel(ctx context.Context, cm designer.CostModel, queries []*workload.Query, pool []designer.Structure) (int, error) {
	pc, ok := cm.(designer.PairCoster)
	if !ok {
		return 0, fmt.Errorf("%T does not implement designer.PairCoster", cm)
	}
	k := pc.PreparePairs(queries)
	defer k.Release()
	cells := 0
	var qis []int
	var costs []float64
	for _, s := range pool {
		qis, costs = k.AppendPairs(qis[:0], costs[:0], s)
		cells += len(qis)
		if len(costs) != len(qis) {
			return cells, fmt.Errorf("%s: %d query indices, %d costs", s.Key(), len(qis), len(costs))
		}
		for i := 1; i < len(qis); i++ {
			if qis[i] <= qis[i-1] {
				return cells, fmt.Errorf("%s: query indices %v are not strictly ascending", s.Key(), qis)
			}
		}
		d := designer.NewDesign(s)
		next := 0
		for qi, q := range queries {
			with, errWith := cm.Cost(ctx, q, d)
			if next < len(qis) && qis[next] == qi {
				if srv, ok := s.(designer.Server); ok && !srv.Serves(q) {
					return cells, fmt.Errorf("%s reports %s, which it does not serve", s.Key(), q)
				}
				if errWith != nil || math.Float64bits(with) != math.Float64bits(costs[next]) {
					return cells, fmt.Errorf("%s on %s: kernel %v, Cost %v (%v)", s.Key(), q, costs[next], with, errWith)
				}
				next++
				continue
			}
			without, errWithout := cm.Cost(ctx, q, nil)
			if err := sameCost(without, errWithout, with, errWith); err != nil {
				return cells, fmt.Errorf("%s skips %s, yet {%s} changes its cost: %w", s.Key(), q, s.Key(), err)
			}
		}
		if next != len(qis) {
			return cells, fmt.Errorf("%s reports query indices %v outside the %d prepared", s.Key(), qis[next:], len(queries))
		}
	}
	return cells, nil
}

// ConcurrentBuilds builds pair tables of w and of its first half over pool
// from several goroutines at once, alternating the two so that pooled
// scratch is reused at different sizes, and requires every table to equal
// the one built alone, bit for bit.
func ConcurrentBuilds(ctx context.Context, cm designer.CostModel, w *workload.Workload, pool []designer.Structure, goroutines, rounds int) error {
	half := &workload.Workload{Items: w.Items[:w.Len()/2]}
	var want [2]*designer.PairTable
	for i, wl := range []*workload.Workload{w, half} {
		t, err := designer.BuildPairTable(ctx, cm, wl, pool)
		if err != nil {
			return err
		}
		want[i] = t
	}
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds && errs[g] == nil; r++ {
				i := (g + r) % 2
				t, err := designer.BuildPairTable(ctx, cm, []*workload.Workload{w, half}[i], pool)
				if err != nil {
					errs[g] = err
				} else if !sameTable(t, want[i]) {
					errs[g] = fmt.Errorf("goroutine %d, round %d: the table differs from the one built alone", g, r)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sameTable reports whether two tables keep the same queries, Base and
// cells, bit for bit.
func sameTable(a, b *designer.PairTable) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !slices.Equal(a.Queries, b.Queries) || !slices.EqualFunc(a.Base, b.Base, bits) || len(a.Helps) != len(b.Helps) {
		return false
	}
	for si := range a.Helps {
		if !slices.Equal(a.Helps[si], b.Helps[si]) || !slices.EqualFunc(a.HelpCost[si], b.HelpCost[si], bits) {
			return false
		}
	}
	return true
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
