package vertsim

import (
	"fmt"
	"strings"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Explain renders the plan the optimizer would choose for q under design d:
// the access path, the estimated rows scanned and output, and the post-scan
// operators. It is the simulator's equivalent of EXPLAIN.
func (db *DB) Explain(q *workload.Query, d *designer.Design) (string, error) {
	qt, err := db.prepare(q)
	if err != nil {
		return "", err
	}
	proj, est := bestPath(q, &qt, d)
	pt := pathTermsOf(q, proj)

	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN %s (est %.0f ms)\n", q, est)
	if proj == nil {
		fmt.Fprintf(&b, "  SCAN super-projection of %s: %.0f rows\n", q.Spec.Table, qt.rows)
	} else {
		fmt.Fprintf(&b, "  SCAN %s\n", proj.Describe())
		fmt.Fprintf(&b, "    sort-prefix pruning: %.0f of %.0f rows\n",
			qt.rowsScanned(pt), qt.rows)
	}
	if len(q.Spec.Preds) > 0 {
		fmt.Fprintf(&b, "  FILTER %d predicates: %.0f rows out\n",
			len(q.Spec.Preds), qt.outRows)
	}
	if len(q.Spec.GroupBy) > 0 {
		mode := "HASH"
		if pt.streamed {
			mode = "STREAMING"
		}
		fmt.Fprintf(&b, "  %s GROUP BY %d columns, %d aggregates\n",
			mode, len(q.Spec.GroupBy), len(q.Spec.Aggs))
	}
	if len(q.Spec.OrderBy) > 0 {
		if pt.ordered {
			b.WriteString("  ORDER BY satisfied by the projection's sort order\n")
		} else {
			b.WriteString("  SORT for ORDER BY\n")
		}
	}
	if q.Spec.Limit > 0 {
		fmt.Fprintf(&b, "  LIMIT %d\n", q.Spec.Limit)
	}
	return b.String(), nil
}
