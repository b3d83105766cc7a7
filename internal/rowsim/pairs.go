package rowsim

import (
	"sync"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// pairKernel is the DB's designer.PairKernel: it checks each query and
// derives its queryParts once per pair table, so a pair costs only its
// structure's own terms, through the same functions as Cost.
type pairKernel struct {
	db      *DB
	queries []*workload.Query
	parts   []queryParts
	skip    []bool // check failed: the query is ErrUnsupported
	anchors designer.AnchorIndex
}

var kernels = sync.Pool{New: func() any { return new(pairKernel) }}

// PreparePairs implements designer.PairCoster.
func (db *DB) PreparePairs(queries []*workload.Query) designer.PairKernel {
	k := kernels.Get().(*pairKernel)
	k.db, k.queries = db, queries
	k.parts, k.skip = k.parts[:0], k.skip[:0]
	for _, q := range queries {
		var qp queryParts
		bad := db.check(q) != nil
		if !bad {
			qp = db.parts(q)
		}
		k.parts = append(k.parts, qp)
		k.skip = append(k.skip, bad)
	}
	k.anchors.Reset(queries, k.skip)
	return k
}

// AppendPairs implements designer.PairKernel: the queries on s's table that
// s serves, each at cheapest's cost over the design {s}. A structure that is
// neither an Index nor a MatView serves nothing here, as in Cost.
func (k *pairKernel) AppendPairs(qis []int, costs []float64, s designer.Structure) ([]int, []float64) {
	n := len(qis)
	var table string
	switch st := s.(type) {
	case *Index:
		table = st.Table
	case *MatView:
		table = st.Table
	default:
		return qis, costs
	}
	for _, qi := range k.anchors.Queries(table) {
		q, qp := k.queries[qi], &k.parts[qi]
		c, ok := k.db.pathCost(q, qp, s)
		if !ok {
			continue
		}
		if scan := qp.scanCost(); !(c < scan) {
			c = scan
		}
		qis = append(qis, int(qi))
		costs = append(costs, c)
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
