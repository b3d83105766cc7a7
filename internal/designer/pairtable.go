package designer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

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
// Queries[q] under the empty design) and the singleton costs (each query's
// cost with one pool structure alone) determine the cost of every design
// over the pool. Each designer differs only in how it searches the table:
// GreedySelect completes greedily by benefit per byte, AutoAdmin prunes per
// query and seeds exhaustively, the ILP designers lower it to an
// ilp.Problem.
//
// BuildPairTable's error contract, shared by every designer built on it:
//   - Pool is deduplicated by key, keeping first occurrences (nil skipped).
//   - An empty pool makes no cost-model call and leaves the table empty.
//   - A query whose base cost returns ErrUnsupported drops out of Queries: it
//     costs the same under every design, so it cannot change a selection.
//   - A singleton pair returning ErrUnsupported is not kept: that structure
//     never serves that query.
//   - Any other error, cancellation included, aborts the build, wrapped.
//   - A structure that implements Server and does not serve q keeps no cell
//     for q, with no cost-model call.
//
// The table is sparse. Helps[s] lists, ascending, the query indices where
// Pool[s] alone beats the base cost, and HelpCost[s][k] is the cost of
// Queries[Helps[s][k]] with Pool[s] alone; every other cell reads Base. The
// search steps (BenefitPerByte, Greedy, Lower) walk only the kept cells:
// every search starts from Base and only lowers it, so a cell that does not
// beat Base can never lower a running minimum, and skipping it leaves every
// sum's terms and order unchanged.
type PairTable struct {
	Pool     []Structure
	Queries  []*workload.Query
	Weights  []float64
	Base     []float64
	Helps    [][]int
	HelpCost [][]float64
}

// PairCoster is implemented by cost models that cost singleton designs over
// one set of queries faster than a Cost call per pair: BuildPairTable and
// PairRows use the kernel when their cost model implements PairCoster. A
// wrapper that counts or times Cost calls must not implement it (nor embed a
// type that does), or the pair cells would bypass the wrapper.
type PairCoster interface {
	PreparePairs() PairKernel
}

// PairKernel costs singleton designs over the queries added to it. Queries
// are added one at a time, so a run-scoped PairRows can grow one kernel with
// the queries its designer calls show it. A kernel is used by one goroutine
// and must not be used after Release.
type PairKernel interface {
	// Add prepares q as the next query, index Len(), and returns its cost
	// under the empty design, bit-identical to the cost model's Cost(q,
	// nil). A query whose empty-design cost is an error (ErrUnsupported) is
	// not added. It counts as one cost-model call in the engine's metrics.
	Add(q *workload.Query) (float64, error)
	// Len returns the number of queries added.
	Len() int
	// AppendPairs appends, ascending, the index of each added query with
	// index >= from that s serves to qis and its cost under NewDesign(s) to
	// costs, bit-identical to the cost model's Cost, and returns both
	// slices. A query it skips costs no less than its empty-design cost
	// under NewDesign(s), or is ErrUnsupported there. Each appended cell
	// counts as one cost-model call in the engine's metrics.
	AppendPairs(qis []int, costs []float64, s Structure, from int) ([]int, []float64)
	// Release returns the kernel's scratch memory for reuse.
	Release()
}

// buildScratch is the reusable memory of one BuildPairTable call: the pool
// deduplication set and the kept cells before they are copied out.
type buildScratch struct {
	seen  map[string]bool
	helps []int
	costs []float64
	ends  []int
}

var scratchPool = sync.Pool{New: func() any { return &buildScratch{seen: make(map[string]bool)} }}

// BuildPairTable costs every query of w under the empty design, then every
// (structure, query) pair — structure outer, query inner — with the
// structure alone, skipping the pairs a Server structure does not serve, and
// keeps the pairs that beat the base cost. A cost model implementing
// PairCoster costs the pairs through its kernel instead, with the same
// result.
func BuildPairTable(ctx context.Context, cm CostModel, w *workload.Workload, candidates []Structure) (*PairTable, error) {
	sc := scratchPool.Get().(*buildScratch)
	defer scratchPool.Put(sc)
	t := &PairTable{Pool: sc.dedup(candidates)}
	if len(t.Pool) == 0 {
		return t, nil
	}

	t.Queries = make([]*workload.Query, 0, len(w.Items))
	t.Weights = make([]float64, 0, len(w.Items))
	t.Base = make([]float64, 0, len(w.Items))
	var k PairKernel
	if pc, ok := cm.(PairCoster); ok {
		k = pc.PreparePairs()
		defer k.Release()
	}
	for _, it := range w.Items {
		var c float64
		err := ctx.Err()
		if err == nil {
			if k != nil {
				c, err = k.Add(it.Q)
			} else {
				c, err = cm.Cost(ctx, it.Q, nil)
			}
		}
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

	var err error
	sc.helps, sc.costs, sc.ends = sc.helps[:0], sc.costs[:0], sc.ends[:0]
	if k != nil {
		err = sc.kernelPairs(ctx, k, t)
	} else {
		err = sc.costPairs(ctx, cm, t)
	}
	if err != nil {
		return nil, err
	}
	return sc.table(t), nil
}

// dedup returns the pool of candidates: deduplicated by key, keeping first
// occurrences, nil skipped.
func (sc *buildScratch) dedup(candidates []Structure) []Structure {
	pool := make([]Structure, 0, len(candidates))
	for _, c := range candidates {
		if c == nil || sc.seen[c.Key()] {
			continue
		}
		sc.seen[c.Key()] = true
		pool = append(pool, c)
	}
	clear(sc.seen)
	return pool
}

// table copies the scratch cells out into t's sparse rows.
func (sc *buildScratch) table(t *PairTable) *PairTable {
	helps := slices.Clone(sc.helps)
	costs := slices.Clone(sc.costs)
	t.Helps = make([][]int, len(t.Pool))
	t.HelpCost = make([][]float64, len(t.Pool))
	start := 0
	for si, end := range sc.ends {
		t.Helps[si] = helps[start:end:end]
		t.HelpCost[si] = costs[start:end:end]
		start = end
	}
	return t
}

// costPairs fills the scratch cells through Cost, one call per pair a
// structure may serve, in the order BuildPairTable documents.
func (sc *buildScratch) costPairs(ctx context.Context, cm CostModel, t *PairTable) error {
	for _, s := range t.Pool {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("costing pairs: %w", err)
		}
		d := NewDesign(s)
		srv, sparse := s.(Server)
		for qi, q := range t.Queries {
			if sparse && !srv.Serves(q) {
				continue
			}
			c, err := cm.Cost(ctx, q, d)
			if err != nil {
				if !errors.Is(err, ErrUnsupported) {
					return fmt.Errorf("costing %s with %s: %w", q, s.Key(), err)
				}
				continue
			}
			if c < t.Base[qi] {
				sc.helps = append(sc.helps, qi)
				sc.costs = append(sc.costs, c)
			}
		}
		sc.ends = append(sc.ends, len(sc.helps))
	}
	return nil
}

// kernelPairs fills the scratch cells through a PairCoster's kernel, which
// holds t's queries: each structure's served cells are appended, then
// compacted in place to the ones that beat Base.
func (sc *buildScratch) kernelPairs(ctx context.Context, k PairKernel, t *PairTable) error {
	for _, s := range t.Pool {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("costing pairs: %w", err)
		}
		start := len(sc.helps)
		sc.helps, sc.costs = k.AppendPairs(sc.helps, sc.costs, s, 0)
		n := start
		for i := start; i < len(sc.helps); i++ {
			if qi, c := sc.helps[i], sc.costs[i]; c < t.Base[qi] {
				sc.helps[n], sc.costs[n] = qi, c
				n++
			}
		}
		sc.helps, sc.costs = sc.helps[:n], sc.costs[:n]
		sc.ends = append(sc.ends, n)
	}
	return nil
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
// sum_q Weights[q] * max(Base[q] - cost of q with Pool[si] alone, 0), per
// byte of its size.
func (t *PairTable) BenefitPerByte(si int) float64 {
	var total float64
	costs := t.HelpCost[si]
	for k, qi := range t.Helps[si] {
		total += t.Weights[qi] * (t.Base[qi] - costs[k])
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
// anywhere, the weights must be positive and finite (as workload.Add keeps
// them), and no size may be negative. It updates taken and cur in place and
// returns the picks in order.
//
// The search is lazy (CELF): each entry of idx is scored once, into a heap
// ordered by score, then by position in idx; each round re-scores only the
// entries that reach the top with an earlier round's score, and takes the
// top once its score is the round's own. That picks what rescoring every
// entry each round picks, bit for bit: cur only decreases, so each term
// w·(cur−c) of a gain can only shrink or drop out, and float rounding is
// monotone, so a sum of non-negative terms cannot grow either. An earlier
// round's score thus bounds the entry's current one from above, and a top
// scored this round beats every other entry or ties it from an earlier
// position. used only grows and a gain only shrinks, so an entry that no
// longer fits or helps leaves the heap for good.
func (t *PairTable) Greedy(ctx context.Context, idx []int, taken []bool, cur []float64, used, budget int64) ([]int, error) {
	if idx == nil {
		idx = []int{} // greedy reads a nil idx as every pool index
	}
	return t.greedy(ctx, idx, taken, cur, used, budget)
}

// greedy is Greedy, with a nil idx standing for every pool index, in
// order.
func (t *PairTable) greedy(ctx context.Context, idx []int, taken []bool, cur []float64, used, budget int64) ([]int, error) {
	h := greedyPool.Get().(*greedyHeap)
	defer greedyPool.Put(h)
	n := len(idx)
	if idx == nil {
		n = len(t.Pool)
	}
	if cap(h.es) < n {
		h.es = make([]greedyEntry, 0, n)
	}
	h.es = h.es[:0]
	for pos := range n {
		si := pos
		if idx != nil {
			si = idx[pos]
		}
		if taken[si] {
			continue
		}
		if score, ok := t.score(si, cur, used, budget); ok {
			h.es = append(h.es, greedyEntry{score: score, si: int32(si), pos: int32(pos)})
		}
	}
	h.init()
	var picks []int
	for round := int32(0); ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for len(h.es) > 0 && h.es[0].round != round {
			top := &h.es[0]
			score, ok := t.score(int(top.si), cur, used, budget)
			if !ok || taken[top.si] { // taken: a later duplicate in idx
				h.pop()
				continue
			}
			top.score, top.round = score, round
			h.down(0)
		}
		if len(h.es) == 0 {
			return picks, nil
		}
		si := int(h.es[0].si)
		h.pop()
		taken[si] = true
		t.Lower(cur, si)
		used += t.Pool[si].SizeBytes()
		picks = append(picks, si)
	}
}

// score returns Pool[si]'s reduction of the running minimum cur per byte,
// and whether it fits the budget and reduces cur at all.
func (t *PairTable) score(si int, cur []float64, used, budget int64) (float64, bool) {
	sz := t.Pool[si].SizeBytes()
	if used+sz > budget {
		return 0, false
	}
	var gain float64
	costs := t.HelpCost[si]
	for k, qi := range t.Helps[si] {
		if c := costs[k]; c < cur[qi] {
			gain += t.Weights[qi] * (cur[qi] - c)
		}
	}
	if gain <= 0 {
		return 0, false
	}
	return gain / float64(max(sz, 1)), true
}

// greedyEntry is one candidate of Greedy's heap: Pool[si], at position pos
// of idx, scored in round.
type greedyEntry struct {
	score float64
	si    int32
	pos   int32
	round int32
}

// greedyHeap is Greedy's max-heap of entries by score, then earliest
// position, whose memory greedyPool keeps across calls. It is not a
// container/heap, whose Pop would box every entry it removes.
type greedyHeap struct{ es []greedyEntry }

var greedyPool = sync.Pool{New: func() any { return new(greedyHeap) }}

// before reports whether entry i orders before entry j.
func (h *greedyHeap) before(i, j int) bool {
	a, b := &h.es[i], &h.es[j]
	return a.score > b.score || a.score == b.score && a.pos < b.pos
}

// init orders the entries into a heap.
func (h *greedyHeap) init() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts entry i down to its place.
func (h *greedyHeap) down(i int) {
	n := len(h.es)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.before(r, c) {
			c = r
		}
		if !h.before(c, i) {
			return
		}
		h.es[i], h.es[c] = h.es[c], h.es[i]
		i = c
	}
}

// pop removes the top entry.
func (h *greedyHeap) pop() {
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	h.down(0)
}

// Lower adds structure si to the running per-query minimum cur, which must
// not exceed Base anywhere.
func (t *PairTable) Lower(cur []float64, si int) {
	costs := t.HelpCost[si]
	for k, qi := range t.Helps[si] {
		if c := costs[k]; c < cur[qi] {
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
// 0/1 integer program: structure k of the problem is Pool[keep[k]]. Every
// cell starts at Base and the kept cells overwrite it. That is exact: the
// solver compares each cell against a running minimum that never exceeds
// Base, so a cell that does not beat Base never counts, whatever its value.
func (t *PairTable) Problem(keep []int, budget int64) *ilp.Problem {
	nk := len(keep)
	p := &ilp.Problem{
		Weights: t.Weights,
		Base:    t.Base,
		Cost:    make([][]float64, len(t.Queries)),
		Size:    make([]int64, nk),
		Budget:  budget,
	}
	cells := make([]float64, len(t.Queries)*nk)
	for qi, base := range t.Base {
		row := cells[qi*nk : (qi+1)*nk : (qi+1)*nk]
		for ki := range row {
			row[ki] = base
		}
		p.Cost[qi] = row
	}
	for ki, si := range keep {
		p.Size[ki] = t.Pool[si].SizeBytes()
		costs := t.HelpCost[si]
		for k, qi := range t.Helps[si] {
			p.Cost[qi][ki] = costs[k]
		}
	}
	return p
}
