package stripe_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffguard/internal/evalcache"
	"cliffguard/internal/obs"
	"cliffguard/internal/stripe"
	"cliffguard/internal/workload"
)

// Distinct second key components: path fingerprints (0 is a structure-free
// path) and engine class fingerprints.
var (
	paths   = []uint64{0, 0xaf63bd4c8601b7df, 0x08328707b4eb6d0f, 0x7b3e5a9c1d2f4680}
	classes = []uint64{1, 1 << 20, 0xdeadbeef, 4}
)

// pathKey is a test-local key of the per-(query, access-path) shape: a query
// pointer plus a uint64 path fingerprint, mixed multiplicatively.
type pathKey struct {
	Q    *workload.Query
	Path uint64
}

func (k pathKey) Mix() uint64 {
	h := uint64(k.Q.ID)*0x9e3779b97f4a7c15 ^ k.Path
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// keyCase runs the Map tests over one memo's key type; key(q, j) is the
// j-th key (j < 4) of query q.
type keyCase struct {
	name                                   string
	lookupStore, hammer, spread, hitAllocs func(t *testing.T)
}

func newCase[K stripe.Key](name string, key func(q *workload.Query, j int) K) keyCase {
	return keyCase{
		name:        name,
		lookupStore: func(t *testing.T) { testLookupStore(t, key) },
		hammer:      func(t *testing.T) { testConcurrentHammer(t, key) },
		spread:      func(t *testing.T) { testShardSpread(t, key) },
		hitAllocs:   func(t *testing.T) { testLookupHitAllocs(t, key) },
	}
}

var keyCases = []keyCase{
	newCase("path", func(q *workload.Query, j int) pathKey {
		return pathKey{Q: q, Path: paths[j]}
	}),
	// The shared store's design tables, one per (engine class, design); a
	// query's content hash stands in for a design fingerprint.
	newCase("shared", func(q *workload.Query, j int) evalcache.TableKey {
		return evalcache.TableKey{Class: classes[j], Design: workload.ContentHash(q)}
	}),
}

// testQueries returns n queries with distinct IDs and distinct content.
func testQueries(n int) []*workload.Query {
	out := make([]*workload.Query, n)
	for i := range out {
		out[i] = workload.FromSpec(workload.NextID(), time.Time{},
			&workload.Spec{Table: "f", SelectCols: []int{i}})
	}
	return out
}

func TestLookupStore(t *testing.T) {
	for _, c := range keyCases {
		t.Run(c.name, c.lookupStore)
	}
}

func testLookupStore[K stripe.Key](t *testing.T, key func(*workload.Query, int) K) {
	var m stripe.Map[K, float64]
	qs := testQueries(3)
	if _, ok := m.Lookup(key(qs[0], 0)); ok {
		t.Fatal("empty map should miss")
	}
	m.Store(key(qs[0], 0), 1.5)
	if v, ok := m.Lookup(key(qs[0], 0)); !ok || v != 1.5 {
		t.Fatalf("got (%v, %v), want (1.5, true)", v, ok)
	}
	// Same query, different second component; same component, different
	// query.
	if _, ok := m.Lookup(key(qs[0], 1)); ok {
		t.Fatal("different path or design should miss")
	}
	if _, ok := m.Lookup(key(qs[1], 0)); ok {
		t.Fatal("different query should miss")
	}
	m.Store(key(qs[0], 0), 2.5)
	if v, _ := m.Lookup(key(qs[0], 0)); v != 2.5 {
		t.Fatalf("overwrite: got %v, want 2.5", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	// Lookup counts nothing; Miss counts on the stripe, and each value adds
	// its own row through Stats' value function.
	m.Miss(key(qs[1], 0))
	if st := m.Stats(oneEntry); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 || len(st.Shards) != stripe.NumShards {
		t.Fatalf("Stats = %d hits, %d misses, %d entries, %d shards; want 0, 1, 1, %d",
			st.Hits, st.Misses, st.Entries, len(st.Shards), stripe.NumShards)
	}
	// Delete moves the value's tallies to its stripe.
	m.Delete(key(qs[0], 0), 2, 3)
	if _, ok := m.Lookup(key(qs[0], 0)); ok || m.Len() != 0 {
		t.Fatalf("deleted key still present (Len %d)", m.Len())
	}
	st := m.Stats(oneEntry)
	if st.Hits != 2 || st.Misses != 4 || st.Entries != 0 {
		t.Fatalf("Stats after Delete = %d hits, %d misses, %d entries; want 2, 4, 0", st.Hits, st.Misses, st.Entries)
	}
	if row := st.Shards[stripe.StripeOf(key(qs[0], 0))]; row.Hits != 2 {
		t.Fatalf("deleted key's stripe row has %d hits, want 2", row.Hits)
	}
}

// oneEntry is the Stats value function of a map whose values count as one
// entry each.
func oneEntry(float64) obs.CacheShardStats { return obs.CacheShardStats{Entries: 1} }

// TestConcurrentHammer races 16 goroutines over a shared key set, mixing
// hits, misses, redundant computes and periodic stats and length scrapes.
// Run under -race; the assertion is that every value read back matches the
// pure function of its key.
func TestConcurrentHammer(t *testing.T) {
	for _, c := range keyCases {
		t.Run(c.name, c.hammer)
	}
}

func testConcurrentHammer[K stripe.Key](t *testing.T, key func(*workload.Query, int) K) {
	var m stripe.Map[K, float64]
	qs := testQueries(32)
	const variants = 4
	value := func(q *workload.Query, j int) float64 { return float64(q.ID)*10 + float64(j) }
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// (query, variant) sweeps the full cross product per
				// goroutine, phase-shifted by g so goroutines collide on the
				// same keys.
				q := qs[(i+g)%len(qs)]
				j := (i / len(qs)) % variants
				got, ok := m.Lookup(key(q, j))
				if !ok {
					m.Miss(key(q, j))
					computes.Add(1)
					got = value(q, j)
					m.Store(key(q, j), got)
				}
				if want := value(q, j); got != want {
					t.Errorf("Lookup(%d, %d) = %v, want %v", q.ID, j, got, want)
					return
				}
				if i%97 == 0 {
					_ = m.Stats(oneEntry)
					_ = m.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	keys := len(qs) * variants
	if n := m.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
	st := m.Stats(oneEntry)
	if st.Misses != uint64(computes.Load()) || st.Entries != keys {
		t.Fatalf("Stats = %d misses, %d entries; want %d (one per compute) and %d entries",
			st.Misses, st.Entries, computes.Load(), keys)
	}
	// Duplicate computes under miss races are allowed but must be rare
	// relative to total accesses (16*500); a blowup means Lookup is broken.
	if n := computes.Load(); n > int64(keys*16) {
		t.Fatalf("%d computes for %d keys", n, keys)
	}
}

// TestShardSpread: each key type's Mix must actually spread keys; all in
// one stripe would silently serialize parallel evaluation again.
func TestShardSpread(t *testing.T) {
	for _, c := range keyCases {
		t.Run(c.name, c.spread)
	}
}

func testShardSpread[K stripe.Key](t *testing.T, key func(*workload.Query, int) K) {
	used := make(map[int]bool)
	for _, q := range testQueries(256) {
		for j := 0; j < 3; j++ {
			used[stripe.StripeOf(key(q, j))] = true
		}
	}
	if len(used) < stripe.NumShards/2 {
		t.Fatalf("only %d of %d stripes used", len(used), stripe.NumShards)
	}
}

// TestLookupHitDoesNotAllocate: a Lookup hit opens the shared store's table
// for every design a run costs.
func TestLookupHitDoesNotAllocate(t *testing.T) {
	for _, c := range keyCases {
		t.Run(c.name, c.hitAllocs)
	}
}

func testLookupHitAllocs[K stripe.Key](t *testing.T, key func(*workload.Query, int) K) {
	var m stripe.Map[K, float64]
	k := key(testQueries(1)[0], 1)
	m.Store(k, 3)
	var hit bool
	if n := testing.AllocsPerRun(100, func() { _, hit = m.Lookup(k) }); n != 0 || !hit {
		t.Fatalf("Lookup hit: %v allocs/op (hit %v), want 0 allocs and a hit", n, hit)
	}
}
