// Package designer defines the interfaces between CliffGuard and the
// physical-design machinery: design structures (projections, indices,
// materialized views), what-if cost models, and the nominal Designer
// contract that CliffGuard drives as a black box (Section 2's design
// principle: CliffGuard never looks inside the designer, it only feeds it
// workloads and reads back designs).
package designer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"cliffguard/internal/workload"
)

// Structure is one physical design object: a projection, an index, or a
// materialized view. Structures are immutable once created.
type Structure interface {
	// Key is a canonical identity: two structures with the same key are the
	// same physical object.
	Key() string
	// SizeBytes is the modeled storage footprint.
	SizeBytes() int64
	// Describe renders a human-readable summary.
	Describe() string
}

// Server is implemented by structures that can tell, without costing, which
// queries they may serve. The contract: when Serves(q) is false, adding the
// structure to any design leaves q's cost bit-identical under the engine the
// structure belongs to. A true answer promises nothing; the structure may
// still lose to another access path. Engines skip non-serving structures in
// Cost, and BuildPairTable fills their cells with the base cost uncosted.
type Server interface {
	Serves(q *workload.Query) bool
}

// Design is a set of structures. The zero value is the empty design
// (paper's NoDesign: every query runs off the base table/super-projection).
//
// A design's structure set must not be mutated after it is first
// fingerprinted (the constructors and With never mutate; they build fresh
// designs, so idiomatic use is safe by construction).
type Design struct {
	Structures []Structure

	// fp caches Fingerprint. 0 means "not yet computed"; computed values are
	// remapped away from 0, so a benign store race can only write the same
	// value twice.
	fp atomic.Uint64
}

// NewDesign builds a design, deduplicating structures by key.
func NewDesign(structures ...Structure) *Design {
	d := &Design{}
	seen := make(map[string]bool, len(structures))
	for _, s := range structures {
		if s == nil || seen[s.Key()] {
			continue
		}
		seen[s.Key()] = true
		d.Structures = append(d.Structures, s)
	}
	return d
}

// SizeBytes returns the total storage footprint of the design.
func (d *Design) SizeBytes() int64 {
	if d == nil {
		return 0
	}
	var total int64
	for _, s := range d.Structures {
		total += s.SizeBytes()
	}
	return total
}

// Len returns the number of structures; nil-safe.
func (d *Design) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Structures)
}

// Keys returns the set of structure keys; nil-safe.
func (d *Design) Keys() map[string]bool {
	out := make(map[string]bool, d.Len())
	if d != nil {
		for _, s := range d.Structures {
			out[s.Key()] = true
		}
	}
	return out
}

// Fingerprint returns a canonical 64-bit identity of the design: an FNV-1a
// hash over the sorted, deduplicated structure keys together with each
// structure's modeled size (the budget-relevant field). Two designs holding
// the same structures — in any order, with any duplication — fingerprint
// identically, which is what lets CliffGuard recognize "the designer returned
// the incumbent again" across iterations and reuse memoized unit costs.
// Nil and empty designs share one fingerprint. The value is computed once
// and cached; it is never 0.
func (d *Design) Fingerprint() uint64 {
	if d == nil {
		return emptyFingerprint
	}
	if v := d.fp.Load(); v != 0 {
		return v
	}
	keys := make([]string, 0, len(d.Structures))
	sizes := make(map[string]int64, len(d.Structures))
	for _, s := range d.Structures {
		k := s.Key()
		if _, dup := sizes[k]; dup {
			continue
		}
		sizes[k] = s.SizeBytes()
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := uint64(fnvOffset)
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * fnvPrime
		}
		h = (h ^ 0xff) * fnvPrime // key terminator: "ab"+"c" != "a"+"bc"
		sz := uint64(sizes[k])
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (sz >> shift & 0xff)) * fnvPrime
		}
	}
	if h == 0 {
		h = 1
	}
	d.fp.Store(h)
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// emptyFingerprint is Fingerprint() of a design with no structures: the
	// bare FNV offset basis (the hash loop body never runs).
	emptyFingerprint = uint64(fnvOffset)
)

// With returns a new design with s appended (no mutation of d).
func (d *Design) With(s Structure) *Design {
	out := &Design{Structures: make([]Structure, 0, d.Len()+1)}
	if d != nil {
		out.Structures = append(out.Structures, d.Structures...)
	}
	out.Structures = append(out.Structures, s)
	return out
}

// String renders the design's structures sorted by key.
func (d *Design) String() string {
	if d.Len() == 0 {
		return "Design{}"
	}
	descs := make([]string, d.Len())
	for i, s := range d.Structures {
		descs[i] = s.Describe()
	}
	sort.Strings(descs)
	return "Design{\n  " + strings.Join(descs, "\n  ") + "\n}"
}

// ErrUnsupported marks queries outside an engine's costable subset (e.g.
// multi-table specs in the single-anchor simulators).
var ErrUnsupported = errors.New("designer: query not supported by this engine")

// CostModel is a what-if interface: it estimates the latency, in
// milliseconds, of running a query under a hypothetical design. This is the
// paper's f(W, D) building block; the paper notes f "is measured either via
// actual execution or by consulting the query optimizer's cost estimates"
// (Section 4.2) — the simulators provide both, and the experiments use the
// estimates.
//
// Cost observes ctx: implementations return ctx.Err() once the context is
// cancelled, which is how CliffGuard's parallel neighborhood evaluation
// aborts a slow what-if pass promptly.
type CostModel interface {
	Cost(ctx context.Context, q *workload.Query, d *Design) (float64, error)
}

// WorkloadCost returns f(W, D): the weighted sum of per-query latencies.
// Queries the engine cannot cost propagate their error.
func WorkloadCost(ctx context.Context, cm CostModel, w *workload.Workload, d *Design) (float64, error) {
	var total float64
	for _, it := range w.Items {
		c, err := cm.Cost(ctx, it.Q, d)
		if err != nil {
			return 0, fmt.Errorf("costing %s: %w", it.Q, err)
		}
		total += it.Weight * c
	}
	return total, nil
}

// ErrNoCostableQuery reports a workload none of whose queries the cost
// model supports (every Cost returned ErrUnsupported).
var ErrNoCostableQuery = errors.New("designer: no query of the workload is costable under the cost model")

// MeanCost returns f(W, D) normalized by costable weight: the weighted mean
// of w's unit costs under d, summed in item order, skipping ErrUnsupported
// queries, so workloads of different total weight compare. A workload with
// no costable query yields ErrNoCostableQuery; any other cost-model error
// (cancellation included) is returned as is.
func MeanCost(ctx context.Context, cm CostModel, w *workload.Workload, d *Design) (float64, error) {
	var total, weight float64
	for _, it := range w.Items {
		c, err := cm.Cost(ctx, it.Q, d)
		if err != nil {
			if errors.Is(err, ErrUnsupported) {
				continue
			}
			return 0, err
		}
		total += it.Weight * c
		weight += it.Weight
	}
	if weight == 0 {
		return 0, ErrNoCostableQuery
	}
	return total / weight, nil
}

// Designer finds a design for a workload within its (construction-time)
// storage budget. Implementations are the paper's "existing designers";
// CliffGuard wraps one. Design observes ctx cancellation: a cancelled
// context aborts the (potentially long) candidate-selection loop with
// ctx.Err().
type Designer interface {
	Name() string
	Design(ctx context.Context, w *workload.Workload) (*Design, error)
}

// CompressByTemplate merges queries sharing a SWGO template into a single
// weighted representative (the highest-weight instance). Designers use this
// both for tractability and — in the DBMS-X-style designer — as the paper's
// "workload compression" anti-overfitting heuristic.
func CompressByTemplate(w *workload.Workload) *workload.Workload {
	return NewCompressor(false).Compress(w)
}

// Compressor is CompressByTemplate over numbered templates. It numbers each
// SWGO template by key, through one reused AppendTemplateKey buffer, so
// only a new template allocates its key; a compressor made for a session
// also remembers each query's template number, so a query seen by an
// earlier call is not keyed again. It is used by one goroutine.
type Compressor struct {
	perQuery map[*workload.Query]int32 // nil: key every item
	numbers  map[string]int32
	key      []byte
	// by template number: the group the current call put it in, valid when
	// its pass is the call's
	marks  []groupMark
	pass   uint32
	groups []compressGroup
}

type groupMark struct {
	pass  uint32
	group int32
}

type compressGroup struct {
	rep    *workload.Query
	repW   float64
	weight float64
}

// NewCompressor returns an empty compressor; session reports whether it
// remembers each query's template number across calls.
func NewCompressor(session bool) *Compressor {
	c := &Compressor{numbers: map[string]int32{}}
	if session {
		c.perQuery = map[*workload.Query]int32{}
	}
	return c
}

// Compress returns CompressByTemplate(w): one item per template in order of
// first occurrence, weighted by the template's weights summed in item
// order, whose query is the template's first item of the highest weight.
func (c *Compressor) Compress(w *workload.Workload) *workload.Workload {
	c.pass++
	groups := c.groups[:0]
	for _, it := range w.Items {
		t := c.template(it.Q)
		m := &c.marks[t]
		if m.pass != c.pass {
			*m = groupMark{pass: c.pass, group: int32(len(groups))}
			groups = append(groups, compressGroup{})
		}
		g := &groups[m.group]
		g.weight += it.Weight
		if it.Weight > g.repW || g.rep == nil {
			g.rep, g.repW = it.Q, it.Weight
		}
	}
	out := &workload.Workload{Items: make([]workload.Item, 0, len(groups))}
	for _, g := range groups {
		out.Add(g.rep, g.weight)
	}
	clear(groups)
	c.groups = groups[:0]
	return out
}

// template returns q's template number.
func (c *Compressor) template(q *workload.Query) int32 {
	if t, ok := c.perQuery[q]; ok {
		return t
	}
	c.key = q.AppendTemplateKey(c.key[:0], workload.MaskSWGO)
	t, ok := c.numbers[string(c.key)]
	if !ok {
		t = int32(len(c.marks))
		c.numbers[string(c.key)] = t
		c.marks = append(c.marks, groupMark{})
	}
	if c.perQuery != nil {
		c.perQuery[q] = t
	}
	return t
}

// GreedySelect implements the selection loop shared by the nominal
// designers: repeatedly add the candidate structure with the highest
// benefit-per-byte under the current design until the budget is exhausted or
// no candidate helps. Benefit is the reduction in f(W, D).
//
// The loop exploits the engines' min-composition property — the cost of a
// query under a design is the minimum of its per-structure access-path costs
// — to evaluate candidates incrementally over a PairTable: each (query,
// structure) pair is costed once, and a pick only lowers the per-query
// running minimum. Errors follow BuildPairTable's contract.
func GreedySelect(ctx context.Context, cm CostModel, w *workload.Workload, candidates []Structure, budget int64) (*Design, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t, err := BuildPairTable(ctx, cm, w, candidates)
	if err != nil {
		return nil, err
	}
	return t.greedyDesign(ctx, budget)
}

// greedyDesign is GreedySelect's search over a built table: Greedy over
// every pool index from Base.
func (t *PairTable) greedyDesign(ctx context.Context, budget int64) (*Design, error) {
	cur := append([]float64(nil), t.Base...)
	sel, err := t.greedy(ctx, nil, make([]bool, len(t.Pool)), cur, 0, budget)
	if err != nil {
		return nil, err
	}
	return t.Design(sel), nil
}

// Designable reports whether some ideal design — budget-unconstrained and
// tailored to q alone — speeds q up by at least factor. Any cost-model
// error, cancellation included, makes q non-designable.
func Designable(ctx context.Context, cm CostModel, provider CandidateProvider, q *workload.Query, factor float64) bool {
	base, err := cm.Cost(ctx, q, nil)
	if err != nil {
		return false
	}
	single := workload.New(q)
	cands := provider.Candidates(single)
	if len(cands) == 0 {
		return false
	}
	ideal, err := GreedySelect(ctx, cm, single, cands, 1<<62)
	if err != nil {
		return false
	}
	best, err := cm.Cost(ctx, q, ideal)
	if err != nil || best <= 0 {
		return false
	}
	return base/best >= factor
}
