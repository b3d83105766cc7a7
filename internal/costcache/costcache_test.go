package costcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffguard/internal/workload"
)

func testQueries(n int) []*workload.Query {
	out := make([]*workload.Query, n)
	for i := range out {
		out[i] = workload.FromSpec(workload.NextID(), time.Time{},
			&workload.Spec{Table: "f", SelectCols: []int{i % 7}})
	}
	return out
}

func TestLookupStore(t *testing.T) {
	c := New()
	pathP := PathKey("p")
	qs := testQueries(3)
	if _, ok := c.Lookup(qs[0], pathP); ok {
		t.Fatal("empty cache should miss")
	}
	c.Store(qs[0], pathP, 1.5)
	if v, ok := c.Lookup(qs[0], pathP); !ok || v != 1.5 {
		t.Fatalf("got (%v, %v), want (1.5, true)", v, ok)
	}
	// Same query, different path; same path, different query.
	if _, ok := c.Lookup(qs[0], PathKey("other")); ok {
		t.Fatal("different path should miss")
	}
	if _, ok := c.Lookup(qs[1], pathP); ok {
		t.Fatal("different query should miss")
	}
	c.Store(qs[0], pathP, 2.5)
	if v, _ := c.Lookup(qs[0], pathP); v != 2.5 {
		t.Fatalf("overwrite: got %v, want 2.5", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestGetOrCompute(t *testing.T) {
	c := New()
	pathP := PathKey("p")
	qs := testQueries(1)
	calls := 0
	compute := func() float64 { calls++; return 7 }
	if v := c.GetOrCompute(qs[0], pathP, compute); v != 7 {
		t.Fatalf("got %v, want 7", v)
	}
	if v := c.GetOrCompute(qs[0], pathP, compute); v != 7 {
		t.Fatalf("cached: got %v, want 7", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestConcurrentHammer races 16 goroutines over a shared key set, mixing
// hits, misses and redundant computes. Run under -race; the assertion is that
// every returned value matches the pure compute function.
func TestConcurrentHammer(t *testing.T) {
	c := New()
	qs := testQueries(32)
	paths := []uint64{0, PathKey("p1"), PathKey("p2"), PathKey("p3")}
	value := func(q *workload.Query, path uint64) float64 {
		return float64(q.ID)*10 + float64(path%7)
	}
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// (query, path) sweeps the full cross product per goroutine,
				// phase-shifted by g so goroutines collide on the same keys.
				q := qs[(i+g)%len(qs)]
				path := paths[(i/len(qs))%len(paths)]
				got := c.GetOrCompute(q, path, func() float64 {
					computes.Add(1)
					return value(q, path)
				})
				if want := value(q, path); got != want {
					t.Errorf("GetOrCompute(%d, %#x) = %v, want %v", q.ID, path, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != len(qs)*len(paths) {
		t.Fatalf("Len = %d, want %d", n, len(qs)*len(paths))
	}
	// Duplicate computes under miss races are allowed but must be rare
	// relative to total accesses (16*500); a blowup means Lookup is broken.
	if n := computes.Load(); n > int64(len(qs)*len(paths)*16) {
		t.Fatalf("%d computes for %d keys", n, len(qs)*len(paths))
	}
}

func TestShardSpread(t *testing.T) {
	// The shard hash must actually spread keys; all-in-one-stripe would
	// silently serialize parallel evaluation again.
	c := New()
	used := make(map[*shard]bool)
	for _, q := range testQueries(256) {
		for _, path := range []uint64{0, PathKey("a"), PathKey("bb")} {
			used[c.shardFor(q, path)] = true
		}
	}
	if len(used) < numShards/2 {
		t.Fatalf("only %d of %d shards used", len(used), numShards)
	}
}

// TestPathKey pins the fingerprint contract: deterministic, never the
// structure-free path 0, and distinct for distinct structure keys.
func TestPathKey(t *testing.T) {
	if PathKey("proj:f:f:sort=1") != PathKey("proj:f:f:sort=1") {
		t.Fatal("PathKey is not deterministic")
	}
	seen := make(map[uint64]string)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("proj:f:%x:sort=%d", i, i%13)
		fp := PathKey(k)
		if fp == 0 {
			t.Fatalf("PathKey(%q) = 0, the structure-free path", k)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("PathKey(%q) == PathKey(%q)", k, prev)
		}
		seen[fp] = k
	}
	if PathKey("") == 0 {
		t.Fatal("PathKey of the empty key is 0")
	}
}
