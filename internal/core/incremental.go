package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/pool"
	"cliffguard/internal/workload"
)

// The incremental-evaluation layer. A run numbers its fixed Γ-neighborhood's
// distinct queries once (the universe) and gives each scored design one
// dense unit-cost vector over them:
//
//   - A live pass under a new design fingerprint fills the vector, one
//     cost-model call per distinct query, then scores every neighbor as an
//     indexed dot product. Every sampled neighbor is W0's items plus a few
//     mutants (Algorithm 4), so W0's prefix is summed once per pass.
//   - The vector keeps its pass's index-aligned results, and a repeat pass
//     under the same fingerprint (every iteration's PhaseRank re-scores the
//     design the previous pass just scored) replays them, so worstCase and
//     worstNeighbors share one evaluation per (neighborhood, design).
//   - MoveWorkload reads the incumbent's vector.
//
// Determinism: entries are the exact float64s the pure cost model returns
// and each neighbor's sum runs over its own items in item order, so every
// score is bit-identical to the reference full pass (MeanCost). Workers
// fill disjoint 64-entry blocks, so there is no lock and each entry is
// computed exactly once at any parallelism. Events come from the loop
// goroutine in index order, live or replayed: the serial full pass's literal
// order. Memory: retain() keeps only the incumbent's and the latest
// candidate's vectors, and the next live pass reuses a dropped one.
type runEval struct {
	cg    *CliffGuard
	full  bool // FullPassEval: every pass is the reference full pass
	u     *universe
	nbrs  []*workload.Workload
	vecs  []*costVec // kept vectors: the incumbent's and candidates'
	spare []*costVec // dropped vectors, reused by the next live pass
	cells uint64     // entries filled across the run

	// kernel fills vectors when the cost model is a designer.VectorCoster:
	// the universe prepared once per run. blocks is its per-worker scratch.
	kernel designer.VectorKernel
	blocks []fillBlock
}

// kernelBlocks is the fewest blocks a kernel fill hands each worker.
const kernelBlocks = 16

// fillBlock is one worker's scratch for a kernel fill of one 64-entry
// block.
type fillBlock struct {
	xs   [64]int32
	errs [64]error
}

// costVec is one design's unit costs over the universe and the results of
// the pass that filled it.
type costVec struct {
	fp   uint64
	cost []float64
	// bad marks entries without a cost: designer.ErrUnsupported, or a hard
	// error recorded in errs. A vector with hard errors is never kept.
	bad     []uint64
	errs    map[int32]error
	results []evalResult
}

func (v *costVec) isBad(x int32) bool { return v.bad[x>>6]&(1<<(x&63)) != 0 }

// newRunEval numbers the neighborhood (w0 is its last member) and, when the
// cost model is a designer.VectorCoster, prepares its kernel over the
// universe.
func (cg *CliffGuard) newRunEval(opts Options, w0 *workload.Workload, neighborhood []*workload.Workload) *runEval {
	re := &runEval{cg: cg, full: opts.fullPassEval, u: newUniverse(w0, neighborhood), nbrs: neighborhood}
	if vc, ok := cg.Cost.(designer.VectorCoster); ok && !re.full {
		re.kernel = vc.PrepareVector(re.u.queries)
	}
	return re
}

// vec returns the kept vector of the design with fingerprint fp, or nil.
func (re *runEval) vec(fp uint64) *costVec {
	for _, v := range re.vecs {
		if v.fp == fp {
			return v
		}
	}
	return nil
}

// score evaluates the neighborhood under d, replaying the kept pass when d's
// fingerprint has been scored before. It runs on the loop goroutine; the
// returned slice stays valid until the next live pass.
func (re *runEval) score(ctx context.Context, d *designer.Design, em emitter, iter int, phase string) []evalResult {
	if re.full {
		return re.cg.evalNeighborhood(ctx, re.nbrs, d, em, iter, phase)
	}
	if v := re.vec(d.Fingerprint()); v != nil {
		re.emit(v, false, em, iter, phase)
		return v.results
	}
	v := re.take(d.Fingerprint())
	if err := re.fill(ctx, v, d, em); err != nil {
		for i := range v.results {
			v.results[i] = evalResult{err: err}
		}
		re.spare = append(re.spare, v)
		return v.results
	}
	re.cells += uint64(len(v.cost))
	re.emit(v, true, em, iter, phase)
	if len(v.errs) == 0 {
		re.vecs = append(re.vecs, v)
	} else {
		re.spare = append(re.spare, v)
	}
	return v.results
}

// take returns an empty vector for fp, reusing a dropped one when it can.
func (re *runEval) take(fp uint64) *costVec {
	if k := len(re.spare); k > 0 {
		v := re.spare[k-1]
		re.spare = re.spare[:k-1]
		clear(v.bad)
		clear(v.errs)
		v.fp = fp
		return v
	}
	n := len(re.u.queries)
	return &costVec{fp: fp, cost: make([]float64, n), bad: make([]uint64, (n+63)/64),
		errs: map[int32]error{}, results: make([]evalResult, len(re.nbrs))}
}

// fill computes every entry of v under d, 64-entry blocks (one word of bad)
// per pool task, through the kernel when there is one. It returns ctx.Err()
// if the context ended first, checking before every entry (every block on
// the kernel path); hard cost-model errors go to v.errs and the fill goes
// on.
func (re *runEval) fill(ctx context.Context, v *costVec, d *designer.Design, em emitter) error {
	n := len(re.u.queries)
	done := ctx.Done()
	var stopped atomic.Bool
	var mu sync.Mutex // guards v.errs
	record := func(x int, err error) {
		if !errors.Is(err, designer.ErrUnsupported) {
			mu.Lock()
			v.errs[int32(x)] = err
			mu.Unlock()
		}
		v.bad[x>>6] |= 1 << (x & 63)
	}
	blocks, par := (n+63)/64, re.cg.Opts.Parallelism
	if re.kernel != nil {
		re.kernel.Bind(d)
		// A kernel entry takes tens of nanoseconds, so a worker woken for
		// fewer than kernelBlocks blocks costs more than it fills.
		par = pool.Size(par, max(blocks/kernelBlocks, 1))
		if len(re.blocks) < par {
			re.blocks = make([]fillBlock, par)
		}
	}
	fanOut(par, blocks, em, func(w, b int) {
		lo, hi := b*64, min(b*64+64, n)
		if re.kernel != nil {
			select {
			case <-done:
				stopped.Store(true)
				return
			default:
			}
			fb := &re.blocks[w]
			for x := lo; x < hi; x++ {
				fb.xs[x-lo] = int32(x)
			}
			re.kernel.Fill(fb.xs[:hi-lo], v.cost[lo:hi], fb.errs[:hi-lo])
			for k, err := range fb.errs[:hi-lo] {
				if err != nil {
					record(lo+k, err)
					fb.errs[k] = nil
				}
			}
			return
		}
		for x := lo; x < hi && !stopped.Load(); x++ {
			select {
			case <-done:
				stopped.Store(true)
				return
			default:
			}
			c, err := re.cg.Cost.Cost(ctx, re.u.queries[x], d)
			if err == nil {
				v.cost[x] = c
				continue
			}
			record(x, err)
		}
	})
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// emit scores every neighbor from the filled vector (live) or replays the
// kept results, in index order, with the pass's events and metrics. A live
// neighbor counts as a slow-path evaluation iff it holds the first
// occurrence of some universe entry; a replayed one never does.
func (re *runEval) emit(v *costVec, live bool, em emitter, iter int, phase string) {
	var prefix partial
	if live {
		prefix = partial{}.add(v, re.u.w0Idx, re.u.w0)
	}
	for i := range v.results {
		start := em.clock()
		if live {
			v.results[i] = re.u.score(v, i, prefix)
		}
		r := v.results[i]
		if em.met != nil {
			em.met.NeighborsEvaluated.Inc()
			if live && re.u.nbrs[i].first {
				em.met.EvalSlowPath.Inc()
			} else {
				em.met.EvalFastPath.Inc()
			}
			em.met.EvalLatency.Observe(time.Since(start))
		}
		if em.obs != nil {
			if r.err == nil {
				em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: i, Cost: r.cost})
			} else if errors.Is(r.err, errWorkloadUncostable) {
				em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: i, Uncostable: true})
			}
		}
	}
}

// retain applies the two-generation eviction: only the incumbent's and the
// latest candidate's vectors survive the iteration boundary.
func (re *runEval) retain(incumbent, candidate *designer.Design) {
	fpI, fpC := incumbent.Fingerprint(), candidate.Fingerprint()
	kept := re.vecs[:0]
	for _, v := range re.vecs {
		if v.fp == fpI || v.fp == fpC {
			kept = append(kept, v)
		} else {
			re.spare = append(re.spare, v)
		}
	}
	clear(re.vecs[len(kept):])
	re.vecs = kept
}

// unit returns d's unit cost by universe index for MoveWorkload: a read of
// d's kept vector, else a cost-model call. ok is false for an unsupported
// query or a hard error.
func (re *runEval) unit(ctx context.Context, d *designer.Design) func(int32) (float64, bool) {
	if v := re.vec(d.Fingerprint()); v != nil {
		return func(x int32) (float64, bool) { return v.cost[x], !v.isBad(x) }
	}
	return re.cg.unitCall(ctx, re.u, d)
}

// unitCall costs one universe entry under d with the cost model.
func (cg *CliffGuard) unitCall(ctx context.Context, u *universe, d *designer.Design) func(int32) (float64, bool) {
	return func(x int32) (float64, bool) {
		c, err := cg.Cost.Cost(ctx, u.queries[x], d)
		return c, err == nil
	}
}

// universe numbers the distinct query pointers of one neighborhood: W0's
// queries first, in item order, then the others in first-appearance order.
// Each neighbor keeps the universe indices of its items in item order; one
// whose leading items are exactly W0's (same pointers and weights, as the
// sampler builds every neighbor) keeps only its tail and resumes from W0's
// prefix sums.
type universe struct {
	queries  []*workload.Query // index -> query
	w0       []workload.Item
	w0Idx    []int32   // W0's items
	w0Weight []float64 // W0's summed weight per index (0 outside W0)
	w0Total  float64
	nW0      int // W0's distinct queries: indices [0, nW0)
	nbrs     []nbrIndex

	// MoveWorkload scratch.
	moveWeight []float64
	moveState  []uint8
	moveOrder  []int32
}

type nbrIndex struct {
	prefix bool            // the items start with W0's, which tail leaves out
	tail   []workload.Item // the items after W0's prefix, or all of them
	idx    []int32         // universe indices of tail
	first  bool            // holds some entry's first occurrence in index order
}

func newUniverse(w0 *workload.Workload, nbrs []*workload.Workload) *universe {
	u := &universe{w0: w0.Items, w0Total: w0.TotalWeight(), nbrs: make([]nbrIndex, len(nbrs))}
	pos := make(map[*workload.Query]int32, len(w0.Items))
	index := func(items []workload.Item) []int32 {
		idx := make([]int32, len(items))
		for k, it := range items {
			x, ok := pos[it.Q]
			if !ok {
				x = int32(len(u.queries))
				pos[it.Q] = x
				u.queries = append(u.queries, it.Q)
			}
			idx[k] = x
		}
		return idx
	}
	u.w0Idx = index(w0.Items)
	u.nW0 = len(u.queries)
	for i, w := range nbrs {
		n := &u.nbrs[i]
		n.tail = w.Items
		if n.prefix = len(w.Items) >= len(w0.Items) && slices.Equal(w.Items[:len(w0.Items)], w0.Items); n.prefix {
			n.tail = w.Items[len(w0.Items):]
		}
		n.idx = index(n.tail)
	}

	size := len(u.queries)
	u.w0Weight = make([]float64, size)
	for k, it := range w0.Items {
		u.w0Weight[u.w0Idx[k]] += it.Weight
	}
	claimed := make([]bool, size)
	claim := func(n *nbrIndex, idx []int32) {
		for _, x := range idx {
			if !claimed[x] {
				claimed[x], n.first = true, true
			}
		}
	}
	for i := range u.nbrs {
		n := &u.nbrs[i]
		if n.prefix {
			claim(n, u.w0Idx) // only the first prefixed neighbor claims any
		}
		claim(n, n.idx)
	}
	u.moveWeight, u.moveState = make([]float64, size), make([]uint8, size)
	return u
}

// partial is a running f(W, D) sum: weighted cost, costable weight, and the
// first hard error in item order.
type partial struct {
	total, weight float64
	err           error
}

// add continues p over items, whose universe indices are idx.
func (p partial) add(v *costVec, idx []int32, items []workload.Item) partial {
	if p.err != nil {
		return p
	}
	for k, x := range idx {
		if v.isBad(x) {
			if p.err = v.errs[x]; p.err != nil {
				return p
			}
			continue
		}
		w := items[k].Weight
		p.total += w * v.cost[x]
		p.weight += w
	}
	return p
}

// score is neighbor i's f(W, D) under v: the sums of designer.MeanCost, in the
// same order.
func (u *universe) score(v *costVec, i int, prefix partial) evalResult {
	n := &u.nbrs[i]
	var p partial
	if n.prefix {
		p = prefix
	}
	p = p.add(v, n.idx, n.tail)
	switch {
	case p.err != nil:
		return evalResult{err: p.err}
	case p.weight == 0:
		return evalResult{err: errWorkloadUncostable}
	}
	return evalResult{cost: p.total / p.weight}
}
