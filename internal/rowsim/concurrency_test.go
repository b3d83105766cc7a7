package rowsim

import (
	"context"
	"sync"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// TestCostConcurrentAccess hammers one cost model from 16 goroutines (run
// under -race): the cost model is shared across CliffGuard's
// parallel neighborhood evaluation, so concurrent Cost calls over overlapping
// (query, path) pairs must be safe and must agree with sequential results.
func TestCostConcurrentAccess(t *testing.T) {
	s := testSchema()
	db := Open(s)
	idx, err := NewIndex(s, "f", []int{0, 1}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	mv, err := NewMatView(s, "f", []int{2}, []workload.Agg{{Fn: workload.Count, Col: -1}})
	if err != nil {
		t.Fatal(err)
	}
	design := designer.NewDesign(idx, mv)

	queries := make([]*workload.Query, 16)
	for i := range queries {
		queries[i] = q(&workload.Spec{Table: "f", SelectCols: []int{i % 5},
			Preds: []workload.Pred{{Col: (i + 1) % 5, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.01}}})
	}
	want := make([]float64, len(queries))
	for i, query := range queries {
		c, err := db.Cost(context.Background(), query, design)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + g) % len(queries)
				c, err := db.Cost(context.Background(), queries[k], design)
				if err != nil {
					t.Error(err)
					return
				}
				if c != want[k] {
					t.Errorf("concurrent cost %v, want %v", c, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
