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
	name string
	// Store wiring: read "nil", "same" (Read == Write) or "separate".
	read  string
	class uint64
	// Entries present before the calls, as (col, design) costed under
	// primeClass: readPrime in Read, writePrime in Write only.
	primeClass            uint64
	readPrime, writePrime [][2]int
	calls                 []call
	wantWrite             int    // Write.Len() after the calls
	wantHits              uint64 // every other call is a miss
}

func TestLayer(t *testing.T) {
	cases := []layerCase{{
		name: "read_hit_copied_into_write", read: "separate",
		readPrime: [][2]int{{0, 1}, {0, 2}},
		calls:     []call{{0, 1, false}, {0, 2, false}, {0, 1, false}},
		wantWrite: 2, wantHits: 3,
	}, {
		// Write already holds (1, 1), but with Read != Write only Read is
		// consulted: the per-run Cache above the layer serves repeats.
		name: "write_never_read_when_separate", read: "separate",
		writePrime: [][2]int{{1, 1}},
		calls:      []call{{1, 1, true}, {1, 1, true}},
		wantWrite:  1,
	}, {
		name: "same_store_reads_its_own_writes", read: "same",
		calls:     []call{{1, 1, true}, {1, 1, false}, {2, 1, true}},
		wantWrite: 2, wantHits: 1,
	}, {
		name: "misses_unknown_design_and_query", read: "separate",
		readPrime: [][2]int{{0, 1}},
		calls:     []call{{0, 2, true}, {5, 1, true}, {0, 1, false}},
		wantWrite: 3, wantHits: 1,
	}, {
		name: "unsupported_memoized", read: "same",
		calls:     []call{{colUnsupported, 0, true}, {colUnsupported, 0, false}},
		wantWrite: 1, wantHits: 1,
	}, {
		name: "unsupported_read_hit_carried_forward", read: "separate",
		readPrime: [][2]int{{colUnsupported, 1}},
		calls:     []call{{colUnsupported, 1, false}},
		wantWrite: 1, wantHits: 1,
	}, {
		name: "hard_error_returned_not_stored", read: "same",
		calls: []call{{colHardError, 0, true}, {colHardError, 0, true}},
	}, {
		name: "class_isolation", read: "same", class: 2, primeClass: 1,
		readPrime: [][2]int{{0, 1}},
		calls:     []call{{0, 1, true}, {0, 1, false}},
		wantWrite: 2, wantHits: 1,
	}, {
		name: "nil_read", read: "nil",
		calls:     []call{{0, 0, true}, {0, 0, true}, {colUnsupported, 0, true}},
		wantWrite: 2,
	}, {
		// The hit and miss counts the serving layer attributes to the run's
		// tenant when the run ends.
		name: "tenant_attribution", read: "same",
		calls:     []call{{3, 0, true}, {3, 0, false}, {3, 0, false}, {4, 0, true}},
		wantWrite: 2, wantHits: 2,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			write := NewShared()
			var read *Shared
			switch tc.read {
			case "same":
				read = write
			case "separate":
				read = NewShared()
			}
			prime := func(s *Shared, entries [][2]int) {
				for _, e := range entries {
					cost, err := fakeValue(e[0], e[1])
					s.Store(layerKey(tc.primeClass, e[0], e[1]), cost, errors.Is(err, designer.ErrUnsupported))
				}
			}
			prime(read, tc.readPrime)
			prime(write, tc.writePrime)
			inner := &fakeCost{}
			l := &Layer{Inner: inner, Class: tc.class, Read: read, Write: write}

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
			if n := write.Len(); n != tc.wantWrite {
				t.Errorf("Write holds %d entries, want %d", n, tc.wantWrite)
			}
			if h := l.Hits(); h != tc.wantHits {
				t.Errorf("Hits = %d, want %d", h, tc.wantHits)
			}
			if m, want := l.Misses(), uint64(len(tc.calls))-tc.wantHits; m != want {
				t.Errorf("Misses = %d, want %d", m, want)
			}
			if tc.read == "separate" {
				// Every Read entry the run asked for is in Write under the
				// same key and value: the handoff chain never shrinks.
				for _, e := range tc.readPrime {
					k := layerKey(tc.primeClass, e[0], e[1])
					rc, ru, _ := read.Lookup(k)
					if wc, wu, ok := write.Lookup(k); !ok || wc != rc || wu != ru {
						t.Errorf("Read entry %v carried into Write as (%v, %v, %v), want (%v, %v, true)", e, wc, wu, ok, rc, ru)
					}
				}
			}
		})
	}
}

// TestGenerationExportAndWarmLookup walks one online handoff end to end: a
// run's layer fills its Write store, and the next run's layer, reading that
// store with fresh query pointers of the same content, is answered without
// calling the inner model — memoized unsupported verdicts included — and
// carries every hit into its own Write store for the run after it.
func TestGenerationExportAndWarmLookup(t *testing.T) {
	ctx := context.Background()
	prev := &Layer{Inner: &fakeCost{}, Write: NewShared()}
	q0, q1 := layerQuery(0), layerQuery(colUnsupported)
	for _, c := range []struct {
		q *workload.Query
		d int
	}{{q0, 1}, {q0, 2}, {q1, 1}} {
		_, _ = prev.Cost(ctx, c.q, layerDesigns[c.d])
	}
	if n := prev.Write.Len(); n != 3 {
		t.Fatalf("previous run's store holds %d pairs, want 3", n)
	}

	// The next run sees fresh query pointers with the same content.
	r0, r1 := layerQuery(0), layerQuery(colUnsupported)
	if workload.ContentHash(r0) != workload.ContentHash(q0) {
		t.Fatal("re-parsed query content hash differs — test premise broken")
	}
	inner := &fakeCost{}
	next := &Layer{Inner: inner, Read: prev.Write, Write: NewShared()}

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
	// Every hit is carried forward: the next handoff never shrinks.
	if n := next.Write.Len(); n != 3 {
		t.Fatalf("next run's store holds %d pairs, want 3", n)
	}
	// All three lookups hit the previous run's store; none missed.
	if st := prev.Write.Stats(); st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("previous store stats = %d hits / %d misses, want 3 / 0", st.Hits, st.Misses)
	}
}

// TestExportOverwriteIsIdempotent: storing the same key twice, and copying
// the same Read hit forward twice, leaves one entry with the original value.
func TestExportOverwriteIsIdempotent(t *testing.T) {
	read := NewShared()
	k := layerKey(0, 2, 1)
	read.Store(k, 3.25, false)
	read.Store(k, 3.25, false) // duplicate store writes the identical entry
	if n := read.Len(); n != 1 {
		t.Fatalf("store holds %d pairs after a duplicate store, want 1", n)
	}

	l := &Layer{Inner: &fakeCost{}, Read: read, Write: NewShared()}
	for i := 0; i < 2; i++ {
		if cost, err := l.Cost(context.Background(), layerQuery(2), layerDesigns[1]); err != nil || cost != 3.25 {
			t.Fatalf("call %d = (%g, %v), want (3.25, nil)", i, cost, err)
		}
	}
	if n := l.Write.Len(); n != 1 {
		t.Fatalf("Write holds %d pairs after a repeated hit, want 1", n)
	}
	cost, unsupported, ok := l.Write.Lookup(k)
	if !ok || unsupported || cost != 3.25 {
		t.Fatalf("Write lookup = (%g, %v, %v), want (3.25, false, true)", cost, unsupported, ok)
	}
}

// TestLayerConcurrentHammer races 16 goroutines through two layers over the
// same key space: a shared-store layer (Read == Write, cliffguardd's wiring)
// and a handoff layer reading a half-primed store (the online wiring). Run
// under -race; every returned value must be the pure function of its key,
// and both stores end up holding the full key space.
func TestLayerConcurrentHammer(t *testing.T) {
	const cols = 8 // 0..7: no unsupported or failing queries
	qs := make([]*workload.Query, cols)
	for i := range qs {
		qs[i] = layerQuery(i)
	}
	prev := NewShared()
	for col := 0; col < cols; col += 2 {
		for d := range layerDesigns {
			cost, _ := fakeValue(col, d)
			prev.Store(layerKey(0, col, d), cost, false)
		}
	}
	shared := NewShared()
	layers := []*Layer{
		{Inner: &fakeCost{}, Read: shared, Write: shared},
		{Inner: &fakeCost{}, Read: prev, Write: NewShared()},
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
					_ = l.Write.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	full := cols * len(layerDesigns)
	for i, l := range layers {
		if n := l.Write.Len(); n != full {
			t.Errorf("layer %d: Write holds %d entries, want %d", i, n, full)
		}
	}
	if layers[0].Hits() == 0 || layers[1].Hits() == 0 {
		t.Errorf("hits: shared %d, handoff %d, want both > 0", layers[0].Hits(), layers[1].Hits())
	}
}

// TestStoreChurnHammer races 16 goroutines through layers over one capped
// store, shared, so that its directory creates and evicts tables throughout:
// layers with Read == Write == shared (cliffguardd's wiring), handoff layers
// reading shared into a fresh store, and handoff layers reading a primed
// store into shared (the online wiring). Stats and Len scrapes interleave.
// Run under -race. Every value must be the pure function of its key; each
// goroutine's successive Stats see a non-decreasing probe count; and at the
// end every store has counted each probe of the layers reading it exactly
// once, evicted tables' included, and holds Stats().Entries == Len() <= cap.
// The shared layers store every (design, query) key in shared, many more
// than its cap, so tables were evicted.
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
	shared, prev := NewShared(), NewShared()
	for i, d := range ds {
		for col := i % 2; col < cols; col += 2 {
			cost, err := fakeValue(col, d.Len())
			prev.Store(SharedKey{Query: workload.ContentHash(qs[col]), Design: d.Fingerprint()}, cost, err != nil)
		}
	}
	layers := []*Layer{
		{Inner: &fakeCost{}, Read: shared, Write: shared},
		{Inner: &fakeCost{}, Read: shared, Write: shared},
		{Inner: &fakeCost{}, Read: shared, Write: NewShared()},
		{Inner: &fakeCost{}, Read: prev, Write: shared},
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
	for _, s := range []*Shared{shared, prev, layers[2].Write} {
		var probes uint64
		for _, l := range layers {
			if l.Read == s {
				probes += l.Hits() + l.Misses()
			}
		}
		st := s.Stats()
		if st.Hits+st.Misses != probes {
			t.Errorf("store counts %d hits + %d misses, its layers made %d probes", st.Hits, st.Misses, probes)
		}
		if n := s.Len(); st.Entries != n || n > capN {
			t.Errorf("Stats counts %d entries, Len %d, cap %d", st.Entries, n, capN)
		}
	}
}

// TestLayerProbeOfReadCreatesNoTable: with Read != Write, a design Read has
// no table for misses there (and is counted) without creating one.
func TestLayerProbeOfReadCreatesNoTable(t *testing.T) {
	read, write := NewShared(), NewShared()
	l := &Layer{Inner: &fakeCost{}, Read: read, Write: write}
	for i := 0; i < 2; i++ {
		if _, err := l.Cost(context.Background(), layerQuery(1), layerDesigns[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(read.tables); n != 0 {
		t.Fatalf("Read holds %d tables after two probes, want 0", n)
	}
	if st := read.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("Read stats = %d misses, %d entries; want 2, 0", st.Misses, st.Entries)
	}
	if n := len(write.tables); n != 1 {
		t.Fatalf("Write holds %d tables, want 1", n)
	}
}

// TestLayerOutlivesEvictedTables: a layer whose cached design table is
// evicted under it re-resolves the table, and every value it returns is the
// inner model's.
func TestLayerOutlivesEvictedTables(t *testing.T) {
	defer SetEntryCap(5)()
	shared := NewShared()
	l := &Layer{Inner: &fakeCost{}, Read: shared, Write: shared}
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
	l := &Layer{Inner: inner, Read: shared, Write: shared}
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
	l := &Layer{Inner: &fakeCost{}, Read: shared, Write: shared}
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
