package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"cliffguard/internal/obs"
)

// runEvalPath runs a fixed-seed robust design with the incremental fast path
// on or off, at the given parallelism, and returns everything the equivalence
// contract covers: the event log, the traces, the final design, and the
// metrics registry.
func runEvalPath(t *testing.T, disable bool, parallelism int) ([]obs.Event, []Trace, map[string]bool, *obs.Metrics) {
	t.Helper()
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	rec := &obs.Recorder{}
	met := obs.NewMetrics()
	cg, _ := newGuard(s, Options{
		Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11,
		Parallelism: parallelism, fullPassEval: disable,
		Observer: rec, Metrics: met,
	})
	d, traces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events(), traces, d.Keys(), met
}

// TestEvalFastPathBitIdentical pins the tentpole equivalence contract: with
// the unit-cost memo and pass replay on, designs, traces, and the event
// stream are bit-identical to the legacy full-pass evaluation — at
// parallelism 1 even the raw event order matches (replay emits index order,
// which is the serial path's literal order), and at NumCPU the canonical
// normalized streams match.
func TestEvalFastPathBitIdentical(t *testing.T) {
	type variant struct {
		name    string
		disable bool
		par     int
	}
	variants := []variant{
		{"fast/p1", false, 1},
		{"legacy/p1", true, 1},
		{"fast/pN", false, runtime.NumCPU()},
		{"legacy/pN", true, runtime.NumCPU()},
	}
	events := make([][]obs.Event, len(variants))
	traces := make([][]Trace, len(variants))
	keys := make([]map[string]bool, len(variants))
	for i, v := range variants {
		events[i], traces[i], keys[i], _ = runEvalPath(t, v.disable, v.par)
	}

	ref := 0 // fast/p1 is the reference
	for i := 1; i < len(variants); i++ {
		if len(traces[i]) != len(traces[ref]) {
			t.Fatalf("%s: %d traces, want %d", variants[i].name, len(traces[i]), len(traces[ref]))
		}
		for j := range traces[ref] {
			if traces[i][j] != traces[ref][j] {
				t.Fatalf("%s: trace %d differs: %+v vs %+v",
					variants[i].name, j, traces[i][j], traces[ref][j])
			}
		}
		if len(keys[i]) != len(keys[ref]) {
			t.Fatalf("%s: design has %d structures, want %d",
				variants[i].name, len(keys[i]), len(keys[ref]))
		}
		for k := range keys[ref] {
			if !keys[i][k] {
				t.Fatalf("%s: design missing structure %s", variants[i].name, k)
			}
		}
		a, b := normalize(events[ref]), normalize(events[i])
		if len(a) != len(b) {
			t.Fatalf("%s: %d events, want %d", variants[i].name, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: event %d differs:\n  ref: %#v\n  got: %#v",
					variants[i].name, j, a[j], b[j])
			}
		}
	}

	// At parallelism 1 the raw, un-normalized streams must also agree:
	// replayed passes emit in index order, which is exactly the order the
	// serial legacy path produces.
	fast, legacy := events[0], events[1]
	if len(fast) != len(legacy) {
		t.Fatalf("p=1 raw event counts differ: %d vs %d", len(fast), len(legacy))
	}
	for i := range fast {
		if fast[i] != legacy[i] {
			t.Fatalf("p=1 raw event %d differs:\n  fast:   %#v\n  legacy: %#v",
				i, fast[i], legacy[i])
		}
	}
}

// TestEvalFastPathReducesCostModelCalls pins the point of the fast path: the
// indexed run must invoke the cost model strictly fewer times than the
// legacy run, serve at least one workload evaluation without a cost-model
// call, fill whole unit-cost vectors only, and the legacy run must never take
// the fast path.
func TestEvalFastPathReducesCostModelCalls(t *testing.T) {
	instrument := func(disable bool) (*obs.Metrics, RunStats) {
		s := testSchema()
		rng := rand.New(rand.NewSource(3))
		w := testWorkload(s, rng, 10)
		met := obs.NewMetrics()
		cg, db := newGuard(s, Options{
			Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11,
			Parallelism: 1, fullPassEval: disable, Metrics: met,
		})
		db.Instrument(met)
		h := cg.Start(context.Background(), w)
		if _, _, err := h.Await(context.Background()); err != nil {
			t.Fatal(err)
		}
		return met, h.Stats()
	}
	fast, st := instrument(false)
	legacy, legacySt := instrument(true)

	if f, l := fast.CostModelCalls.Load(), legacy.CostModelCalls.Load(); f >= l {
		t.Fatalf("fast path made %d cost-model calls, legacy %d — expected a reduction", f, l)
	}
	if fast.EvalFastPath.Load() == 0 {
		t.Fatal("fast run served no workload evaluation from a unit-cost vector")
	}
	if legacy.EvalFastPath.Load() != 0 {
		t.Fatalf("legacy run took the fast path %d times", legacy.EvalFastPath.Load())
	}
	if legacy.EvalSlowPath.Load() == 0 {
		t.Fatal("legacy run recorded no slow-path evaluations")
	}
	if st.UniverseQueries == 0 || st.UniverseCells == 0 || st.UniverseCells%uint64(st.UniverseQueries) != 0 {
		t.Fatalf("fast run: %d queries, %d cells — want whole vectors", st.UniverseQueries, st.UniverseCells)
	}
	if legacySt.UniverseCells != 0 {
		t.Fatalf("legacy run filled %d cells despite fullPassEval", legacySt.UniverseCells)
	}
	if _, ok := fast.CacheSnapshots()["evalcache"]; ok {
		t.Fatal("the run registered a per-run memo")
	}
}
