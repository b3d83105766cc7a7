package vertsim

import (
	"slices"
	"sort"
	"sync"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// prepared holds queries prepared once for the DB's kernels: each query's
// terms, its super-projection cost (bestPath's starting point), its
// clause-set union and its anchor. A projection serves a query exactly when
// they share the anchor and the projection's columns contain the union, so
// a kernel checks a projection only against its anchor's queries, with one
// bitset test. A cell then costs one pathTermsOf and one queryTerms.cost,
// exactly the work bestPath does for that projection, without the per-call
// prepare and context check.
type prepared struct {
	db      *DB
	queries []*workload.Query
	terms   []queryTerms
	base    []float64
	refs    []workload.ColSet
	arena   []uint64 // the words of refs
	anchors designer.AnchorIndex
}

func (pr *prepared) reset(db *DB) {
	pr.db, pr.queries = db, pr.queries[:0]
	pr.terms, pr.base, pr.refs, pr.arena = pr.terms[:0], pr.base[:0], pr.refs[:0], pr.arena[:0]
	pr.anchors.Reset()
}

// grow makes room for n more queries.
func (pr *prepared) grow(n int) {
	pr.queries = slices.Grow(pr.queries, n)
	pr.terms = slices.Grow(pr.terms, n)
	pr.base = slices.Grow(pr.base, n)
	pr.refs = slices.Grow(pr.refs, n)
}

// add appends q with prepare's outcome; a query prepare rejected takes an
// index but no anchor.
func (pr *prepared) add(q *workload.Query, qt queryTerms, err error) {
	var base float64
	var refs workload.ColSet
	if err == nil {
		base = qt.cost(pathTermsOf(q, nil))
		refs, pr.arena = q.AppendColumns(pr.arena)
	}
	pr.queries = append(pr.queries, q)
	pr.terms = append(pr.terms, qt)
	pr.base = append(pr.base, base)
	pr.refs = append(pr.refs, refs)
	pr.anchors.Add(q, err != nil)
}

// serves reports whether p, a projection on x's anchor, serves query x.
func (pr *prepared) serves(x int32, p *Projection) bool { return p.Cols.Contains(pr.refs[x]) }

// lower is bestPath's step for a projection p on x's anchor that serves
// query x: x's cost with p added to a design whose best path costs best.
func (pr *prepared) lower(x int32, p *Projection, best float64) float64 {
	if c := pr.terms[x].cost(pathTermsOf(pr.queries[x], p)); c < best {
		return c
	}
	return best
}

// pairKernel is the DB's designer.PairKernel.
type pairKernel struct{ prepared }

var kernels = sync.Pool{New: func() any { return new(pairKernel) }}

// PreparePairs implements designer.PairCoster.
func (db *DB) PreparePairs() designer.PairKernel {
	k := kernels.Get().(*pairKernel)
	k.reset(db)
	return k
}

// Add implements designer.PairKernel.
func (k *pairKernel) Add(q *workload.Query) (float64, error) {
	if k.db.met != nil {
		k.db.met.CostModelCalls.Inc()
	}
	qt, err := k.db.prepare(q)
	if err != nil {
		return 0, err
	}
	k.add(q, qt, nil)
	return k.base[len(k.base)-1], nil
}

// Len implements designer.PairKernel.
func (k *pairKernel) Len() int { return len(k.queries) }

// AppendPairs implements designer.PairKernel: the queries from index from
// on s's anchor that s serves, each at bestPath's cost over the design {s}.
// A structure that is not a Projection serves nothing here, as in Cost.
func (k *pairKernel) AppendPairs(qis []int, costs []float64, s designer.Structure, from int) ([]int, []float64) {
	p, ok := s.(*Projection)
	if !ok {
		return qis, costs
	}
	n := len(qis)
	list := k.anchors.Queries(p.Anchor)
	for _, x := range list[sort.Search(len(list), func(i int) bool { return int(list[i]) >= from }):] {
		if !k.serves(x, p) {
			continue
		}
		qis = append(qis, int(x))
		costs = append(costs, k.lower(x, p, k.base[x]))
	}
	if k.db.met != nil && len(qis) > n {
		k.db.met.CostModelCalls.Add(uint64(len(qis) - n))
	}
	return qis, costs
}

// Release implements designer.PairKernel.
func (k *pairKernel) Release() {
	k.db = nil
	clear(k.queries)
	kernels.Put(k)
}

// vectorKernel is the DB's designer.VectorKernel: the universe prepared
// once per run, and the bound design's projections grouped by anchor once
// per fill, so an entry walks only the projections on its query's anchor.
type vectorKernel struct {
	prepared
	errs     []error         // prepare's error per query
	byAnchor [][]*Projection // the bound design's projections, by anchor slot
}

// PrepareVector implements designer.VectorCoster.
func (db *DB) PrepareVector(queries []*workload.Query) designer.VectorKernel {
	k := &vectorKernel{errs: make([]error, 0, len(queries))}
	k.reset(db)
	k.grow(len(queries))
	for _, q := range queries {
		qt, err := db.prepare(q)
		k.add(q, qt, err)
		k.errs = append(k.errs, err)
	}
	k.byAnchor = make([][]*Projection, k.anchors.Anchors())
	return k
}

// Bind implements designer.VectorKernel. Structures that are not
// projections, and projections on no anchor of the universe, serve none of
// its queries.
func (k *vectorKernel) Bind(d *designer.Design) {
	for a := range k.byAnchor {
		k.byAnchor[a] = k.byAnchor[a][:0]
	}
	if d == nil {
		return
	}
	for _, s := range d.Structures {
		if p, ok := s.(*Projection); ok {
			if a := k.anchors.SlotOf(p.Anchor); a >= 0 {
				k.byAnchor[a] = append(k.byAnchor[a], p)
			}
		}
	}
}

// Fill implements designer.VectorKernel: each entry is bestPath's minimum
// over the same projections, the ones on other anchors left out.
func (k *vectorKernel) Fill(xs []int32, cost []float64, errs []error) {
	if k.db.met != nil {
		k.db.met.CostModelCalls.Add(uint64(len(xs)))
	}
	for i, x := range xs {
		if err := k.errs[x]; err != nil {
			cost[i], errs[i] = 0, err
			continue
		}
		best := k.base[x]
		for _, p := range k.byAnchor[k.anchors.Slot(int(x))] {
			if k.serves(x, p) {
				best = k.lower(x, p, best)
			}
		}
		cost[i], errs[i] = best, nil
	}
}
