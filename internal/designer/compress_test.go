package designer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/sample"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// refCompressByTemplate is CompressByTemplate as it was before keys were
// looked up through a reused AppendTemplateKey buffer: one TemplateKey
// string per item and a map of group pointers.
func refCompressByTemplate(w *workload.Workload) *workload.Workload {
	type group struct {
		rep    *workload.Query
		repW   float64
		weight float64
	}
	groups := make(map[string]*group)
	var order []string
	for _, it := range w.Items {
		key := it.Q.MaskedColumns(workload.MaskSWGO).Key()
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.weight += it.Weight
		if it.Weight > g.repW || g.rep == nil {
			g.rep, g.repW = it.Q, it.Weight
		}
	}
	out := &workload.Workload{}
	for _, key := range order {
		g := groups[key]
		out.Add(g.rep, g.weight)
	}
	return out
}

// TestCompressByTemplateMatchesReference: on R1's first month, and on the
// month plus sampler mutants under random weights (ties included), the
// compressed workload has the reference's items in the reference's order,
// with the same representatives and the same weight bits. Compressing the
// result again changes nothing, and neither does compressing through one
// session's Compressor, call after call.
func TestCompressByTemplateMatchesReference(t *testing.T) {
	s := datagen.Warehouse(1)
	cfg := wlgen.R1Config(s, 1)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	set, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	month := set.Months[0]
	rng := rand.New(rand.NewSource(5))
	m := sample.NewMutator(s)
	mixed := &workload.Workload{}
	for _, it := range month.Items {
		mixed.Add(it.Q, float64(1+rng.Intn(4)))
		mixed.Add(m.Mutate(rng, it.Q), rng.Float64()*3)
	}
	for name, w := range map[string]*workload.Workload{"month": month, "mutants": mixed} {
		got, want := CompressByTemplate(w), refCompressByTemplate(w)
		sameItems(t, name, got, want)
		sameItems(t, name+" recompressed", CompressByTemplate(got), want)
		if got.Len() >= w.Len() {
			t.Fatalf("%s: %d items compressed to %d; no template repeats", name, w.Len(), got.Len())
		}
	}
	// One session's compressor over the workloads in turn: a query keyed
	// by an earlier call keeps its template number.
	c := NewCompressor(true)
	for i, w := range []*workload.Workload{month, mixed, month, mixed} {
		sameItems(t, fmt.Sprintf("session call %d", i), c.Compress(w), refCompressByTemplate(w))
	}
}

func sameItems(t *testing.T, name string, got, want *workload.Workload) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d items, reference %d", name, got.Len(), want.Len())
	}
	for i, it := range got.Items {
		w := want.Items[i]
		if it.Q != w.Q || math.Float64bits(it.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("%s: item %d is %v x %v, reference %v x %v", name, i, it.Q, it.Weight, w.Q, w.Weight)
		}
	}
}

// TestCompressByTemplateAllocatesPerTemplate: compressing many instances of
// one template costs the same few allocations as compressing one; only a
// new template allocates its key.
func TestCompressByTemplateAllocatesPerTemplate(t *testing.T) {
	build := func(n int) *workload.Workload {
		w := &workload.Workload{}
		for i := 0; i < n; i++ {
			w.Add(mkQuery(int64(i), 1, 70, 130), float64(i+1))
		}
		return w
	}
	one, many := build(1), build(1000)
	a1 := testing.AllocsPerRun(20, func() { CompressByTemplate(one) })
	an := testing.AllocsPerRun(20, func() { CompressByTemplate(many) })
	if an != a1 {
		t.Fatalf("one template: %.0f allocs for 1 item, %.0f for 1000; want the same", a1, an)
	}
}
