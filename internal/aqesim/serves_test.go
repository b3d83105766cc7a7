package aqesim

import (
	"context"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/workload"
)

// TestServesContract checks Sample.Serves against the cost model on an R1
// window, its candidates and sampler mutants of its queries: every
// candidate serves some query of the window, and a structure that does not
// serve a query leaves its cost bit-identical. It also checks the sparse
// pair table against a dense oracle over the same queries.
func TestServesContract(t *testing.T) {
	s, month, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(s)
	cw := designer.CompressByTemplate(month)
	pool := NewDesigner(db, 2560<<20).Candidates(cw)
	ctx := context.Background()
	queries := designertest.Mutants(s, cw, 7)
	if idle := designertest.Idle(pool, queries[:cw.Len()]); len(idle) > 0 {
		t.Fatalf("%d of %d candidates serve no query of the window they were built for: %v", len(idle), len(pool), idle)
	}
	checked, err := designertest.ServesContract(ctx, db, queries, pool, designertest.RandomDesigns(pool, 3, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no non-serving pair was checked")
	}
	if err := designertest.DensePairTable(ctx, db, workload.New(queries...), pool); err != nil {
		t.Fatal(err)
	}
}
