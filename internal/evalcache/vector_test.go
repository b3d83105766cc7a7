package evalcache_test

import (
	"context"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/vertsim"
)

// TestLayerVectorKernel checks the Layer's vector path: every entry matches
// Cost bit for bit (designertest.Vector, cold and then warm), and a fill
// leaves the same hits, misses and stores as costing its entries one Cost
// call at a time.
func TestLayerVectorKernel(t *testing.T) {
	s, month, err := designertest.R1Month(1)
	if err != nil {
		t.Fatal(err)
	}
	db := vertsim.Open(s)
	cw := designer.CompressByTemplate(month)
	pool := vertsim.NewDesigner(db, 2560<<20).Candidates(cw)
	queries := append(designertest.Mutants(s, cw, 5), designertest.Unsupported(s)...)
	designs := designertest.RandomDesigns(pool, 3, 10, 5)
	ctx := context.Background()

	shared := evalcache.NewShared()
	for pass := 0; pass < 2; pass++ {
		if _, err := designertest.Vector(ctx, &evalcache.Layer{Inner: db, Store: shared}, queries, designs); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	if shared.Len() == 0 {
		t.Fatal("the shared store holds no entries")
	}

	// The same fill through the kernel and through Cost, each over a store
	// that an earlier run half populated.
	layer := func() *evalcache.Layer {
		store := evalcache.NewShared()
		warm := &evalcache.Layer{Inner: db, Store: store}
		for _, q := range queries[:len(queries)/2] {
			warm.Cost(ctx, q, designs[0])
		}
		return &evalcache.Layer{Inner: db, Store: store}
	}
	byKernel, byCost := layer(), layer()
	k := byKernel.PrepareVector(queries)
	xs := make([]int32, len(queries))
	for i := range xs {
		xs[i] = int32(i)
	}
	cost := make([]float64, len(queries))
	errs := make([]error, len(queries))
	for _, d := range designs {
		k.Bind(d)
		k.Fill(xs, cost, errs)
		for _, q := range queries {
			byCost.Cost(ctx, q, d)
		}
	}
	if byKernel.Hits() != byCost.Hits() || byKernel.Misses() != byCost.Misses() || byKernel.Hits() == 0 {
		t.Fatalf("kernel hits/misses %d/%d, Cost %d/%d", byKernel.Hits(), byKernel.Misses(), byCost.Hits(), byCost.Misses())
	}
	if a, b := byKernel.Store.Stats(), byCost.Store.Stats(); a != b {
		t.Fatalf("store stats after the kernel fill %+v, after Cost %+v", a, b)
	}
	var _ designer.VectorCoster = byKernel
	if (&evalcache.Layer{Inner: costOnly{db}}).PrepareVector(queries) != nil {
		t.Fatal("a Layer over a model without a vector kernel prepared one")
	}
}

// costOnly hides its model's kernels.
type costOnly struct{ designer.CostModel }
