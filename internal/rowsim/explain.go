package rowsim

import (
	"fmt"
	"strings"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Explain renders the plan the optimizer would choose for q under design d:
// full scan, index access (plain or index-only), or materialized-view
// roll-up. It is the simulator's equivalent of EXPLAIN.
func (db *DB) Explain(q *workload.Query, d *designer.Design) (string, error) {
	access, est, err := db.bestAccess(q, d)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN %s (est %.0f ms)\n", q, est)
	switch st := access.(type) {
	case *MatView:
		fmt.Fprintf(&b, "  ROLLUP from %s\n", st.Describe())
	case *Index:
		if st.covers(q) {
			fmt.Fprintf(&b, "  INDEX-ONLY SCAN %s\n", st.Describe())
		} else {
			fmt.Fprintf(&b, "  INDEX SCAN %s + base-table fetch\n", st.Describe())
		}
	default:
		fmt.Fprintf(&b, "  FULL SCAN of %s\n", q.Spec.Table)
	}
	if len(q.Spec.Preds) > 0 {
		fmt.Fprintf(&b, "  FILTER %d predicates\n", len(q.Spec.Preds))
	}
	if len(q.Spec.GroupBy) > 0 {
		fmt.Fprintf(&b, "  HASH GROUP BY %d columns, %d aggregates\n",
			len(q.Spec.GroupBy), len(q.Spec.Aggs))
	}
	if len(q.Spec.OrderBy) > 0 {
		b.WriteString("  SORT for ORDER BY\n")
	}
	if q.Spec.Limit > 0 {
		fmt.Fprintf(&b, "  LIMIT %d\n", q.Spec.Limit)
	}
	return b.String(), nil
}
