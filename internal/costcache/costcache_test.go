package costcache

import (
	"fmt"
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
