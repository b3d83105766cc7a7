// Package designertest checks the contracts an engine promises the designer
// package, on whatever queries and candidate pools the engine's own tests
// supply: designer.Server's "a structure that does not serve q leaves q's
// cost bit-identical", designer.BuildPairTable's sparse table (and a
// session's designer.PairRows tables) against a dense oracle that costs
// every pair, and the pair and vector kernels against Cost.
package designertest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

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
	return dense(ctx, cm, t, w, candidates)
}

// DensePairRows builds the tables of ws[i] over pools[i] in order through
// one designer.PairRows, as a designer session does across a run's calls,
// and checks each against the dense oracle of DensePairTable and against
// designer.BuildPairTable's table, bit for bit.
func DensePairRows(ctx context.Context, cm designer.CostModel, ws []*workload.Workload, pools [][]designer.Structure) error {
	rows := designer.NewPairRows(cm)
	for i, w := range ws {
		t, err := rows.Table(ctx, w, pools[i])
		if err != nil {
			return err
		}
		if err := dense(ctx, cm, t, w, pools[i]); err != nil {
			return fmt.Errorf("table %d: %w", i, err)
		}
		want, err := designer.BuildPairTable(ctx, cm, w, pools[i])
		if err != nil {
			return err
		}
		if !sameTable(t, want) || !slices.Equal(t.Weights, want.Weights) {
			return fmt.Errorf("table %d differs from BuildPairTable's", i)
		}
	}
	return nil
}

// dense checks t, built from w and candidates, against the dense oracle.
func dense(ctx context.Context, cm designer.CostModel, t *designer.PairTable, w *workload.Workload, candidates []designer.Structure) error {
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

// Kernel checks cm's designer.PairKernel, with queries added to it, against
// cm.Cost for every structure of pool: Add returns cm.Cost(q, nil) bit for
// bit and adds exactly the queries that cost, the cells a structure reports
// are ascending, each is a query the structure serves (when it implements
// designer.Server) at cm.Cost(q, {s}) bit for bit, and every query it does
// not report costs the same under {s} as under the empty design, or is
// ErrUnsupported under both. It also requires the kernel to report every
// query whose cost {s} lowers, and AppendPairs from the midpoint to report
// exactly the cells at or past it. It returns the number of cells reported.
func Kernel(ctx context.Context, cm designer.CostModel, queries []*workload.Query, pool []designer.Structure) (int, error) {
	pc, ok := cm.(designer.PairCoster)
	if !ok {
		return 0, fmt.Errorf("%T does not implement designer.PairCoster", cm)
	}
	k := pc.PreparePairs()
	defer k.Release()
	var added []*workload.Query // by kernel index
	for _, q := range queries {
		base, errBase := k.Add(q)
		want, errWant := cm.Cost(ctx, q, nil)
		if err := sameCost(want, errWant, base, errBase); err != nil {
			return 0, fmt.Errorf("Add(%s): %w", q, err)
		}
		if errBase == nil {
			added = append(added, q)
		}
		if k.Len() != len(added) {
			return 0, fmt.Errorf("after Add(%s) the kernel holds %d queries, want %d", q, k.Len(), len(added))
		}
	}
	cells := 0
	var qis, tail []int
	var costs []float64
	for _, s := range pool {
		qis, costs = k.AppendPairs(qis[:0], costs[:0], s, 0)
		cells += len(qis)
		if len(costs) != len(qis) {
			return cells, fmt.Errorf("%s: %d query indices, %d costs", s.Key(), len(qis), len(costs))
		}
		for i := 1; i < len(qis); i++ {
			if qis[i] <= qis[i-1] {
				return cells, fmt.Errorf("%s: query indices %v are not strictly ascending", s.Key(), qis)
			}
		}
		mid := len(added) / 2
		tail, _ = k.AppendPairs(tail[:0], nil, s, mid)
		if want := qis[sort.SearchInts(qis, mid):]; !slices.Equal(tail, want) {
			return cells, fmt.Errorf("%s: from %d the kernel reports %v, want %v", s.Key(), mid, tail, want)
		}
		d := designer.NewDesign(s)
		next := 0
		for qi, q := range added {
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
			return cells, fmt.Errorf("%s reports query indices %v outside the %d added", s.Key(), qis[next:], len(added))
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

// Unsupported returns queries outside the single-anchor engines' costable
// subset over s: one without a Spec, one on an unknown table, one whose
// column lies outside its anchor, and one with an invalid column ID.
func Unsupported(s *schema.Schema) []*workload.Query {
	tables := s.Tables()
	a, b := tables[0], tables[len(tables)-1]
	return []*workload.Query{
		{},
		workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{Table: "nope", SelectCols: []int{a.Columns[0].ID}}),
		workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{Table: a.Name, SelectCols: []int{a.Columns[0].ID, b.Columns[0].ID}}),
		workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{Table: a.Name, SelectCols: []int{s.NumColumns() + 7}}),
	}
}

// Vector checks cm's designer.VectorKernel, prepared over queries, against
// cm.Cost under every design of designs and the nil design: every entry,
// filled in blocks of up to 64 in index order, again in shuffled blocks of
// uneven sizes, and again by four goroutines at once (run it under -race),
// matches cm.Cost(q, d) bit for bit, and errs exactly when Cost does, with
// ErrUnsupported when Cost's error is. It returns the number of entries
// checked.
func Vector(ctx context.Context, cm designer.CostModel, queries []*workload.Query, designs []*designer.Design) (int, error) {
	vc, ok := cm.(designer.VectorCoster)
	if !ok {
		return 0, fmt.Errorf("%T does not implement designer.VectorCoster", cm)
	}
	k := vc.PrepareVector(queries)
	if k == nil {
		return 0, fmt.Errorf("%T prepared no vector kernel", cm)
	}
	n := len(queries)
	inOrder := make([]int32, n)
	for i := range inOrder {
		inOrder[i] = int32(i)
	}
	shuffled := slices.Clone(inOrder)
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cost := make([]float64, n)
	errs := make([]error, n)
	checked := 0
	for _, d := range append([]*designer.Design{nil}, designs...) {
		k.Bind(d)
		for pass, xs := range [][]int32{inOrder, shuffled, inOrder} {
			var wg sync.WaitGroup
			for lo, size, b := 0, 64, 0; lo < n; lo, b = lo+size, b+1 {
				if pass == 1 {
					size = 1 + (lo*7)%64
				}
				hi := min(lo+size, n)
				if pass < 2 {
					k.Fill(xs[lo:hi], cost[lo:hi], errs[lo:hi])
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					k.Fill(xs[lo:hi], cost[lo:hi], errs[lo:hi])
				}()
				if b%4 == 3 {
					wg.Wait()
				}
			}
			wg.Wait()
			for i, x := range xs {
				want, errWant := cm.Cost(ctx, queries[x], d)
				switch {
				case (errs[i] == nil) != (errWant == nil):
					return checked, fmt.Errorf("%s under %v: kernel error %v, Cost error %v", queries[x], d, errs[i], errWant)
				case errWant != nil && errors.Is(errWant, designer.ErrUnsupported) != errors.Is(errs[i], designer.ErrUnsupported):
					return checked, fmt.Errorf("%s under %v: kernel error %v, Cost error %v", queries[x], d, errs[i], errWant)
				case errWant == nil && math.Float64bits(cost[i]) != math.Float64bits(want):
					return checked, fmt.Errorf("%s under %v: kernel %v, Cost %v", queries[x], d, cost[i], want)
				}
				checked++
			}
		}
	}
	return checked, nil
}

// RunWorkloads returns the shape of the workloads one robust run designs
// for: w itself, then n workloads of w's items plus a few sampler mutants of
// w's queries (drawn with a rand seeded by seed; 4% of w's size), the way
// each moved workload adds worst neighbors' queries to W0. Mutant shares
// overlap, so later workloads repeat queries that earlier ones added.
func RunWorkloads(s *schema.Schema, w *workload.Workload, seed int64, n int) []*workload.Workload {
	mutants := Mutants(s, w, seed)[w.Len():]
	out := []*workload.Workload{w}
	step := max(len(mutants)/50, 1)
	for i := 0; i < n; i++ {
		moved := w.Clone()
		for _, q := range mutants[min(i*step, len(mutants)):min((i+2)*step, len(mutants))] {
			moved.Add(q, 0.5+float64(i))
		}
		out = append(out, moved)
	}
	return out
}

// Session designs ws in order through one session of d and requires every
// design to equal d.Design's on the same workload: the same structures in
// the same order.
func Session(ctx context.Context, d designer.SessionDesigner, ws []*workload.Workload) error {
	s := d.Session()
	if s.Name() != d.Name() {
		return fmt.Errorf("session named %q, designer %q", s.Name(), d.Name())
	}
	for i, w := range ws {
		got, err := s.Design(ctx, w)
		if err != nil {
			return err
		}
		want, err := d.Design(ctx, w)
		if err != nil {
			return err
		}
		if !slices.EqualFunc(got.Structures, want.Structures, func(a, b designer.Structure) bool { return a.Key() == b.Key() }) {
			return fmt.Errorf("workload %d: the session designed %v, the designer %v", i, got, want)
		}
	}
	return nil
}
