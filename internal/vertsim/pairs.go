package vertsim

import (
	"sync"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// pairKernel is the DB's designer.PairKernel. It prepares each query once
// per pair table: its query terms and its super-projection cost. A pair
// then costs one pathTermsOf and one queryTerms.cost, exactly the work
// bestPath does for a one-projection design, without the per-call prepare,
// context check and design.
type pairKernel struct {
	db      *DB
	queries []*workload.Query
	terms   []queryTerms
	base    []float64 // the super-projection cost, bestPath's starting point
	skip    []bool    // prepare failed: the query is ErrUnsupported
	anchors designer.AnchorIndex
}

var kernels = sync.Pool{New: func() any { return new(pairKernel) }}

// PreparePairs implements designer.PairCoster.
func (db *DB) PreparePairs(queries []*workload.Query) designer.PairKernel {
	k := kernels.Get().(*pairKernel)
	k.db, k.queries = db, queries
	k.terms, k.base, k.skip = k.terms[:0], k.base[:0], k.skip[:0]
	for _, q := range queries {
		qt, err := db.prepare(q)
		var base float64
		if err == nil {
			base = qt.cost(pathTermsOf(q, nil))
		}
		k.terms = append(k.terms, qt)
		k.base = append(k.base, base)
		k.skip = append(k.skip, err != nil)
	}
	k.anchors.Reset(queries, k.skip)
	return k
}

// AppendPairs implements designer.PairKernel: the queries on s's anchor
// that s serves, each at bestPath's cost over the design {s}. A structure
// that is not a Projection serves nothing here, as in Cost.
func (k *pairKernel) AppendPairs(qis []int, costs []float64, s designer.Structure) ([]int, []float64) {
	p, ok := s.(*Projection)
	if !ok {
		return qis, costs
	}
	n := len(qis)
	for _, qi := range k.anchors.Queries(p.Anchor) {
		q := k.queries[qi]
		if !p.Serves(q) {
			continue
		}
		best := k.base[qi]
		if c := k.terms[qi].cost(pathTermsOf(q, p)); c < best {
			best = c
		}
		qis = append(qis, int(qi))
		costs = append(costs, best)
	}
	if k.db.met != nil && len(qis) > n {
		k.db.met.CostModelCalls.Add(uint64(len(qis) - n))
	}
	return qis, costs
}

// Release implements designer.PairKernel.
func (k *pairKernel) Release() {
	k.db, k.queries = nil, nil
	kernels.Put(k)
}
