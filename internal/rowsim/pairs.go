package rowsim

import (
	"slices"
	"sort"
	"sync"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// prepared holds queries checked once for the DB's kernels, with their
// queryParts and tables, so a cell costs only its structure's own terms,
// through the same functions as Cost, and a kernel checks a structure only
// against the queries on its table.
type prepared struct {
	db      *DB
	queries []*workload.Query
	parts   []queryParts
	anchors designer.AnchorIndex
}

func (pr *prepared) reset(db *DB) {
	pr.db, pr.queries, pr.parts = db, pr.queries[:0], pr.parts[:0]
	pr.anchors.Reset()
}

// grow makes room for n more queries.
func (pr *prepared) grow(n int) {
	pr.queries = slices.Grow(pr.queries, n)
	pr.parts = slices.Grow(pr.parts, n)
}

// add appends q with check's outcome; a query check rejected takes an index
// but no table.
func (pr *prepared) add(q *workload.Query, err error) {
	var qp queryParts
	if err == nil {
		qp = pr.db.parts(q)
	}
	pr.queries = append(pr.queries, q)
	pr.parts = append(pr.parts, qp)
	pr.anchors.Add(q, err != nil)
}

// cell is cheapest's cost of query x over the design {s}; false when s does
// not serve x.
func (pr *prepared) cell(x int32, s designer.Structure) (float64, bool) {
	qp := &pr.parts[x]
	c, ok := pr.db.pathCost(pr.queries[x], qp, s)
	if !ok {
		return 0, false
	}
	if scan := qp.scanCost(); !(c < scan) {
		c = scan
	}
	return c, true
}

// table returns the table s is on, or "" when s is not a row-store
// structure (which serves nothing here, as in Cost).
func table(s designer.Structure) string {
	switch st := s.(type) {
	case *Index:
		return st.Table
	case *MatView:
		return st.Table
	}
	return ""
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
	if err := k.db.check(q); err != nil {
		return 0, err
	}
	k.add(q, nil)
	return k.parts[len(k.parts)-1].scanCost(), nil
}

// Len implements designer.PairKernel.
func (k *pairKernel) Len() int { return len(k.queries) }

// AppendPairs implements designer.PairKernel: the queries from index from
// on s's table that s serves, each at cheapest's cost over the design {s}.
func (k *pairKernel) AppendPairs(qis []int, costs []float64, s designer.Structure, from int) ([]int, []float64) {
	t := table(s)
	if t == "" {
		return qis, costs
	}
	n := len(qis)
	list := k.anchors.Queries(t)
	for _, x := range list[sort.Search(len(list), func(i int) bool { return int(list[i]) >= from }):] {
		if c, ok := k.cell(x, s); ok {
			qis = append(qis, int(x))
			costs = append(costs, c)
		}
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

// vectorKernel is the DB's designer.VectorKernel: the universe checked once
// per run, and the bound design's structures grouped by table once per
// fill, so an entry walks only the structures on its query's table.
type vectorKernel struct {
	prepared
	errs    []error                // check's error per query
	byTable [][]designer.Structure // the bound design's structures, by table slot
}

// PrepareVector implements designer.VectorCoster.
func (db *DB) PrepareVector(queries []*workload.Query) designer.VectorKernel {
	k := &vectorKernel{errs: make([]error, 0, len(queries))}
	k.reset(db)
	k.grow(len(queries))
	for _, q := range queries {
		err := db.check(q)
		k.add(q, err)
		k.errs = append(k.errs, err)
	}
	k.byTable = make([][]designer.Structure, k.anchors.Anchors())
	return k
}

// Bind implements designer.VectorKernel.
func (k *vectorKernel) Bind(d *designer.Design) {
	for a := range k.byTable {
		k.byTable[a] = k.byTable[a][:0]
	}
	if d == nil {
		return
	}
	for _, s := range d.Structures {
		if t := table(s); t != "" {
			if a := k.anchors.SlotOf(t); a >= 0 {
				k.byTable[a] = append(k.byTable[a], s)
			}
		}
	}
}

// Fill implements designer.VectorKernel: each entry is cheapest's minimum
// over the same structures, the ones on other tables left out.
func (k *vectorKernel) Fill(xs []int32, cost []float64, errs []error) {
	if k.db.met != nil {
		k.db.met.CostModelCalls.Add(uint64(len(xs)))
	}
	for i, x := range xs {
		if err := k.errs[x]; err != nil {
			cost[i], errs[i] = 0, err
			continue
		}
		qp := &k.parts[x]
		best := qp.scanCost()
		for _, s := range k.byTable[k.anchors.Slot(int(x))] {
			if c, ok := k.db.pathCost(k.queries[x], qp, s); ok && c < best {
				best = c
			}
		}
		cost[i], errs[i] = best, nil
	}
}
