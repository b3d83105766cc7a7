package evalcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// layerQuery builds a small query whose content differs per col, with its
// own fresh pointer each call — the cross-run situation content keys exist
// for (same content, different *Query identity).
func layerQuery(col int) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{
		Table:      "facts",
		SelectCols: []int{col},
		Preds: []workload.Pred{
			{Col: col, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.01},
		},
	})
}

type fakeStructure string

func (f fakeStructure) Key() string      { return string(f) }
func (f fakeStructure) SizeBytes() int64 { return 1 }
func (f fakeStructure) Describe() string { return string(f) }

// layerDesigns[n] holds n structures: distinct fingerprints, and a Len the
// fake cost model can read back.
var layerDesigns = func() []*designer.Design {
	out := make([]*designer.Design, 3)
	for n := range out {
		var ss []designer.Structure
		for i := 0; i < n; i++ {
			ss = append(ss, fakeStructure(fmt.Sprint("s", i)))
		}
		out[n] = designer.NewDesign(ss...)
	}
	return out
}()

const (
	colUnsupported = 8 // the fake cost model rejects this query
	colHardError   = 9 // and fails on this one
)

var errHard = errors.New("cost model failure")

// fakeCost is a pure cost function of (query content, design) with a call
// tally.
type fakeCost struct{ calls atomic.Uint64 }

func (f *fakeCost) Cost(_ context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	f.calls.Add(1)
	return fakeValue(q.Spec.SelectCols[0], d.Len())
}

func fakeValue(col, design int) (float64, error) {
	switch col {
	case colUnsupported:
		return 0, designer.ErrUnsupported
	case colHardError:
		return 0, errHard
	}
	return float64(10*col+design) + 0.25, nil
}

// layerKey is the content key a Layer of class computes for (col, design).
func layerKey(class uint64, col, design int) SharedKey {
	return SharedKey{Class: class, Query: workload.ContentHash(layerQuery(col)), Design: layerDesigns[design].Fingerprint()}
}

// call is one Cost call of a layerCase: the query content and design, and
// whether it must reach the inner cost model.
type call struct {
	col, design int
	inner       bool
}

type layerCase struct {
	name  string
	class uint64
	// Entries in Store before the calls, as (col, design) costed under
	// primeClass.
	primeClass uint64
	prime      [][2]int
	calls      []call
	wantLen    int    // Store.Len() after the calls
	wantHits   uint64 // every other call is a miss
}

func TestLayer(t *testing.T) {
	cases := []layerCase{{
		// A hit answers from the store and leaves the entry there for the
		// next run's layer over the same store.
		name:    "read_hit_copied_into_write",
		prime:   [][2]int{{0, 1}, {0, 2}},
		calls:   []call{{0, 1, false}, {0, 2, false}, {0, 1, false}},
		wantLen: 2, wantHits: 3,
	}, {
		// A memoized unsupported verdict answers without the inner model
		// and stays in the store as well.
		name:    "unsupported_read_hit_carried_forward",
		prime:   [][2]int{{colUnsupported, 1}},
		calls:   []call{{colUnsupported, 1, false}},
		wantLen: 1, wantHits: 1,
	}, {
		name:    "same_store_reads_its_own_writes",
		calls:   []call{{1, 1, true}, {1, 1, false}, {2, 1, true}},
		wantLen: 2, wantHits: 1,
	}, {
		name:    "misses_unknown_design_and_query",
		prime:   [][2]int{{0, 1}},
		calls:   []call{{0, 2, true}, {5, 1, true}, {0, 1, false}},
		wantLen: 3, wantHits: 1,
	}, {
		name:    "unsupported_memoized",
		calls:   []call{{colUnsupported, 0, true}, {colUnsupported, 0, false}},
		wantLen: 1, wantHits: 1,
	}, {
		name:  "hard_error_returned_not_stored",
		calls: []call{{colHardError, 0, true}, {colHardError, 0, true}},
	}, {
		name: "class_isolation", class: 2, primeClass: 1,
		prime:   [][2]int{{0, 1}},
		calls:   []call{{0, 1, true}, {0, 1, false}},
		wantLen: 2, wantHits: 1,
	}, {
		// The hit and miss counts the serving layer attributes to the run's
		// tenant when the run ends.
		name:    "tenant_attribution",
		calls:   []call{{3, 0, true}, {3, 0, false}, {3, 0, false}, {4, 0, true}},
		wantLen: 2, wantHits: 2,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewShared()
			for _, e := range tc.prime {
				cost, err := fakeValue(e[0], e[1])
				store.Store(layerKey(tc.primeClass, e[0], e[1]), cost, errors.Is(err, designer.ErrUnsupported))
			}
			inner := &fakeCost{}
			l := &Layer{Inner: inner, Class: tc.class, Store: store}

			for i, c := range tc.calls {
				before := inner.calls.Load()
				got, err := l.Cost(context.Background(), layerQuery(c.col), layerDesigns[c.design])
				want, wantErr := fakeValue(c.col, c.design)
				if got != want || !errors.Is(err, wantErr) {
					t.Fatalf("call %d (%d, %d) = (%v, %v), want (%v, %v)", i, c.col, c.design, got, err, want, wantErr)
				}
				if reached := inner.calls.Load() > before; reached != c.inner {
					t.Fatalf("call %d (%d, %d) reached the inner model: %v, want %v", i, c.col, c.design, reached, c.inner)
				}
			}
			if n := store.Len(); n != tc.wantLen {
				t.Errorf("Store holds %d entries, want %d", n, tc.wantLen)
			}
			if h := l.Hits(); h != tc.wantHits {
				t.Errorf("Hits = %d, want %d", h, tc.wantHits)
			}
			if m, want := l.Misses(), uint64(len(tc.calls))-tc.wantHits; m != want {
				t.Errorf("Misses = %d, want %d", m, want)
			}
			// Every primed entry is still in the store under its key and
			// value: a hit never drops what the next run reads.
			for _, e := range tc.prime {
				cost, err := fakeValue(e[0], e[1])
				c, u, ok := store.Lookup(layerKey(tc.primeClass, e[0], e[1]))
				if want := errors.Is(err, designer.ErrUnsupported); !ok || c != cost || u != want {
					t.Errorf("primed entry %v held as (%v, %v, %v), want (%v, %v, true)", e, c, u, ok, cost, want)
				}
			}
		})
	}
}

// TestGenerationExportAndWarmLookup walks reuse across runs end to end: one
// run's layer fills the store, and a later run's layer over the same store,
// costing fresh query pointers of the same content, is answered without
// calling the inner model — memoized unsupported verdicts included.
func TestGenerationExportAndWarmLookup(t *testing.T) {
	ctx := context.Background()
	store := NewShared()
	prev := &Layer{Inner: &fakeCost{}, Store: store}
	q0, q1 := layerQuery(0), layerQuery(colUnsupported)
	for _, c := range []struct {
		q *workload.Query
		d int
	}{{q0, 1}, {q0, 2}, {q1, 1}} {
		_, _ = prev.Cost(ctx, c.q, layerDesigns[c.d])
	}
	if n := store.Len(); n != 3 {
		t.Fatalf("the first run's store holds %d pairs, want 3", n)
	}

	// The next run sees fresh query pointers with the same content.
	r0, r1 := layerQuery(0), layerQuery(colUnsupported)
	if workload.ContentHash(r0) != workload.ContentHash(q0) {
		t.Fatal("re-parsed query content hash differs — test premise broken")
	}
	inner := &fakeCost{}
	next := &Layer{Inner: inner, Store: store}

	if cost, err := next.Cost(ctx, r0, layerDesigns[1]); err != nil || cost != 1.25 {
		t.Fatalf("warm lookup (q0, 1) = (%g, %v), want (1.25, nil)", cost, err)
	}
	if cost, err := next.Cost(ctx, r0, layerDesigns[2]); err != nil || cost != 2.25 {
		t.Fatalf("warm lookup (q0, 2) = (%g, %v), want (2.25, nil)", cost, err)
	}
	if _, err := next.Cost(ctx, r1, layerDesigns[1]); !errors.Is(err, designer.ErrUnsupported) {
		t.Fatalf("warm lookup (q1, 1) err = %v, want the memoized unsupported verdict", err)
	}
	if got := next.Hits(); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
	if n := inner.calls.Load(); n != 0 {
		t.Fatalf("inner model called %d times, want 0", n)
	}
	if n := store.Len(); n != 3 {
		t.Fatalf("the store holds %d pairs after the second run, want 3", n)
	}
	// The first run's three probes missed; the second run's three hit.
	if st := store.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("store stats = %d hits / %d misses, want 3 / 3", st.Hits, st.Misses)
	}
}

// TestExportOverwriteIsIdempotent: storing the same key twice, and a layer
// answering the same key twice, leaves one entry with the original value.
func TestExportOverwriteIsIdempotent(t *testing.T) {
	store := NewShared()
	k := layerKey(0, 2, 1)
	store.Store(k, 3.25, false)
	store.Store(k, 3.25, false) // duplicate store writes the identical entry
	if n := store.Len(); n != 1 {
		t.Fatalf("store holds %d pairs after a duplicate store, want 1", n)
	}

	l := &Layer{Inner: &fakeCost{}, Store: store}
	for i := 0; i < 2; i++ {
		if cost, err := l.Cost(context.Background(), layerQuery(2), layerDesigns[1]); err != nil || cost != 3.25 {
			t.Fatalf("call %d = (%g, %v), want (3.25, nil)", i, cost, err)
		}
	}
	if n := store.Len(); n != 1 {
		t.Fatalf("store holds %d pairs after a repeated hit, want 1", n)
	}
	cost, unsupported, ok := store.Lookup(k)
	if !ok || unsupported || cost != 3.25 {
		t.Fatalf("store lookup = (%g, %v, %v), want (3.25, false, true)", cost, unsupported, ok)
	}
}

// TestLayerConcurrentHammer races 16 goroutines through two layers (two
// tenants' runs) over one half-primed store and the same key space. Run
// under -race; every returned value must be the pure function of its key,
// the store ends up holding the full key space, and both layers hit.
func TestLayerConcurrentHammer(t *testing.T) {
	const cols = 8 // 0..7: no unsupported or failing queries
	qs := make([]*workload.Query, cols)
	for i := range qs {
		qs[i] = layerQuery(i)
	}
	shared := NewShared()
	for col := 0; col < cols; col += 2 {
		for d := range layerDesigns {
			cost, _ := fakeValue(col, d)
			shared.Store(layerKey(0, col, d), cost, false)
		}
	}
	layers := []*Layer{
		{Inner: &fakeCost{}, Store: shared},
		{Inner: &fakeCost{}, Store: shared},
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := layers[g%2]
			for i := 0; i < 300; i++ {
				col, d := (i+g)%cols, (i/cols)%len(layerDesigns)
				got, err := l.Cost(context.Background(), qs[col], layerDesigns[d])
				if want, _ := fakeValue(col, d); err != nil || got != want {
					t.Errorf("Cost(%d, %d) = (%v, %v), want %v", col, d, got, err, want)
					return
				}
				if i%61 == 0 {
					_ = shared.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if n, full := shared.Len(), cols*len(layerDesigns); n != full {
		t.Errorf("the store holds %d entries, want %d", n, full)
	}
	if layers[0].Hits() == 0 || layers[1].Hits() == 0 {
		t.Errorf("hits: %d and %d, want both > 0", layers[0].Hits(), layers[1].Hits())
	}
}

// TestStoreChurnHammer races 16 goroutines through four layers over one
// capped store, so that its directory creates and evicts tables throughout.
// Stats and Len scrapes interleave. Run under -race. Every value must be the
// pure function of its key; each goroutine's successive Stats see a
// non-decreasing probe count; and at the end the store has counted each
// probe of the layers exactly once, evicted tables' included, and holds
// Stats().Entries == Len() <= cap. The layers store every (design, query)
// key, many more than the cap, so tables were evicted.
func TestStoreChurnHammer(t *testing.T) {
	const (
		cols    = 9 // 0..8: colUnsupported's verdict is memoized too
		capN    = 40
		designs = 16
	)
	defer SetEntryCap(capN)()
	qs := make([]*workload.Query, cols)
	for i := range qs {
		qs[i] = layerQuery(i)
	}
	ds := make([]*designer.Design, designs)
	for i := range ds {
		var ss []designer.Structure
		for j := 0; j <= i%3; j++ {
			ss = append(ss, fakeStructure(fmt.Sprint("h", i, "-", j)))
		}
		ds[i] = designer.NewDesign(ss...)
	}
	shared := NewShared()
	layers := make([]*Layer, 4)
	for i := range layers {
		layers[i] = &Layer{Inner: &fakeCost{}, Store: shared}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := layers[g%len(layers)]
			var seen uint64
			for i := 0; i < 4*cols*designs; i++ {
				col, d := i%cols, (i/cols+g)%designs
				got, err := l.Cost(context.Background(), qs[col], ds[d])
				want, wantErr := fakeValue(col, ds[d].Len())
				if got != want || !errors.Is(err, wantErr) {
					t.Errorf("Cost(%d, design %d) = (%v, %v), want (%v, %v)", col, d, got, err, want, wantErr)
					return
				}
				if i%17 == g%17 {
					st := shared.Stats()
					_ = shared.Len()
					n := st.Hits + st.Misses
					if n < seen {
						t.Errorf("shared counts %d probes after %d", n, seen)
						return
					}
					seen = n
				}
			}
		}(g)
	}
	wg.Wait()
	var probes uint64
	for _, l := range layers {
		probes += l.Hits() + l.Misses()
	}
	st := shared.Stats()
	if st.Hits+st.Misses != probes {
		t.Errorf("store counts %d hits + %d misses, its layers made %d probes", st.Hits, st.Misses, probes)
	}
	if n := shared.Len(); st.Entries != n || n > capN {
		t.Errorf("Stats counts %d entries, Len %d, cap %d", st.Entries, n, capN)
	}
}

// TestLayerOutlivesEvictedTables: a layer whose cached design table is
// evicted under it re-resolves the table, and every value it returns is the
// inner model's.
func TestLayerOutlivesEvictedTables(t *testing.T) {
	defer SetEntryCap(5)()
	shared := NewShared()
	l := &Layer{Inner: &fakeCost{}, Store: shared}
	for round := 0; round < 3; round++ {
		for d := range layerDesigns {
			for col := 0; col < 8; col++ {
				got, err := l.Cost(context.Background(), layerQuery(col), layerDesigns[d])
				if want, _ := fakeValue(col, d); err != nil || got != want {
					t.Fatalf("round %d (%d, %d) = (%v, %v), want %v", round, col, d, got, err, want)
				}
				if n := shared.Len(); n > 5 {
					t.Fatalf("%d resident entries, cap 5", n)
				}
			}
		}
	}
	if st := shared.Stats(); st.Hits != l.Hits() || st.Misses != l.Misses() {
		t.Fatalf("store counts %d hits / %d misses, layer %d / %d", st.Hits, st.Misses, l.Hits(), l.Misses())
	}
}

// TestLayerKeysLiteralQueries: a query built as a literal, which carries no
// stored hash, keys like the FromSpec query of the same content.
func TestLayerKeysLiteralQueries(t *testing.T) {
	shared := NewShared()
	inner := &fakeCost{}
	l := &Layer{Inner: inner, Store: shared}
	built := layerQuery(4)
	literal := &workload.Query{
		Select: built.Select.Clone(), Where: built.Where.Clone(),
		Spec: &workload.Spec{Table: "facts", SelectCols: []int{4}, Preds: []workload.Pred{{Col: 4, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.01}}},
	}
	other := &workload.Query{Select: built.Select.Clone(), Spec: &workload.Spec{Table: "facts", SelectCols: []int{5}}}
	ctx := context.Background()
	if _, err := l.Cost(ctx, built, layerDesigns[1]); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Cost(ctx, literal, layerDesigns[1]); err != nil || got != 41.25 || inner.calls.Load() != 1 {
		t.Fatalf("literal query = (%v, %v) after %d inner calls, want a hit of 41.25", got, err, inner.calls.Load())
	}
	if got, err := l.Cost(ctx, other, layerDesigns[1]); err != nil || got != 51.25 || inner.calls.Load() != 2 {
		t.Fatalf("different literal query = (%v, %v) after %d inner calls, want a miss of 51.25", got, err, inner.calls.Load())
	}
}

// TestWarmLayerHitDoesNotAllocate: a Layer call answered by a populated
// Shared is one field read and one table probe, with no allocation.
func TestWarmLayerHitDoesNotAllocate(t *testing.T) {
	shared := NewShared()
	l := &Layer{Inner: &fakeCost{}, Store: shared}
	q, d := layerQuery(3), layerDesigns[2]
	ctx := context.Background()
	if _, err := l.Cost(ctx, q, d); err != nil {
		t.Fatal(err)
	}
	var err error
	if n := testing.AllocsPerRun(200, func() { _, err = l.Cost(ctx, q, d) }); n != 0 || err != nil {
		t.Fatalf("warm hit: %v allocs/op (err %v), want 0", n, err)
	}
	if l.Hits() < 200 {
		t.Fatalf("Hits = %d, want every timed call to hit", l.Hits())
	}
}
