package evalcache

import (
	"sync"
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

// TestLookupStore pins the entry encoding of both stores: a cost and an
// unsupported verdict round-trip unchanged, and a later Store overwrites.
func TestLookupStore(t *testing.T) {
	qs := testQueries(2)
	c, s := New(), NewShared()
	k0, k1 := SharedKey{Query: 1, Design: 1}, SharedKey{Query: 2, Design: 1}
	c.Store(qs[0], 1, 1.5, false)
	c.Store(qs[1], 1, 0, true)
	s.Store(k0, 1.5, false)
	s.Store(k1, 0, true)
	if v, uns, ok := c.Lookup(qs[0], 1); !ok || uns || v != 1.5 {
		t.Fatalf("Cache cost: got (%v, %v, %v), want (1.5, false, true)", v, uns, ok)
	}
	if v, uns, ok := c.Lookup(qs[1], 1); !ok || !uns || v != 0 {
		t.Fatalf("Cache verdict: got (%v, %v, %v), want (0, true, true)", v, uns, ok)
	}
	if v, uns, ok := s.Lookup(k0); !ok || uns || v != 1.5 {
		t.Fatalf("Shared cost: got (%v, %v, %v), want (1.5, false, true)", v, uns, ok)
	}
	if v, uns, ok := s.Lookup(k1); !ok || !uns || v != 0 {
		t.Fatalf("Shared verdict: got (%v, %v, %v), want (0, true, true)", v, uns, ok)
	}
	c.Store(qs[0], 1, 2.5, false)
	s.Store(k0, 2.5, false)
	if v, _, _ := c.Lookup(qs[0], 1); v != 2.5 {
		t.Fatalf("Cache overwrite: got %v, want 2.5", v)
	}
	if v, _, _ := s.Lookup(k0); v != 2.5 {
		t.Fatalf("Shared overwrite: got %v, want 2.5", v)
	}
	if c.Len() != 2 || s.Len() != 2 {
		t.Fatalf("Len = %d, %d, want 2, 2", c.Len(), s.Len())
	}
}

func TestUnsupportedMemoized(t *testing.T) {
	c := New()
	qs := testQueries(1)
	c.Store(qs[0], 7, 0, true)
	v, uns, ok := c.Lookup(qs[0], 7)
	if !ok || !uns || v != 0 {
		t.Fatalf("got (%v, %v, %v), want (0, true, true)", v, uns, ok)
	}
}

func TestRetain(t *testing.T) {
	c := New()
	qs := testQueries(8)
	for _, q := range qs {
		for fp := uint64(1); fp <= 3; fp++ {
			c.Store(q, fp, float64(q.ID)+float64(fp), false)
		}
	}
	if c.Len() != len(qs)*3 {
		t.Fatalf("Len = %d, want %d", c.Len(), len(qs)*3)
	}
	c.Retain(1, 3)
	if c.Len() != len(qs)*2 {
		t.Fatalf("after Retain(1,3): Len = %d, want %d", c.Len(), len(qs)*2)
	}
	for _, q := range qs {
		if _, _, ok := c.Lookup(q, 2); ok {
			t.Fatal("evicted fingerprint still present")
		}
		if v, _, ok := c.Lookup(q, 1); !ok || v != float64(q.ID)+1 {
			t.Fatalf("retained entry lost or corrupted: (%v, %v)", v, ok)
		}
	}
	c.Retain()
	if c.Len() != 0 {
		t.Fatalf("Retain() should empty the cache, Len = %d", c.Len())
	}
}

// TestConcurrentHammer races readers and writers against Retain calls that
// really evict: 8 goroutines fill and read fingerprints 1..4 while another
// repeatedly retains {1, 2}. Run under -race; every hit must be the pure
// value of its key, and after a final Retain only fingerprints 1 and 2
// remain.
func TestConcurrentHammer(t *testing.T) {
	c := New()
	qs := testQueries(32)
	value := func(q *workload.Query, fp uint64) float64 { return float64(q.ID)*10 + float64(fp) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q, fp := qs[(i+g)%len(qs)], uint64(1+(i/len(qs))%4)
				got, uns, ok := c.Lookup(q, fp)
				if !ok {
					c.Store(q, fp, value(q, fp), false)
				} else if uns || got != value(q, fp) {
					t.Errorf("Lookup(%d, %d) = (%v, %v), want (%v, false)", q.ID, fp, got, uns, value(q, fp))
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Retain(1, 2)
		}
	}()
	wg.Wait()
	c.Retain(1, 2)
	for _, q := range qs {
		for fp := uint64(3); fp <= 4; fp++ {
			if _, _, ok := c.Lookup(q, fp); ok {
				t.Fatalf("fingerprint %d survived Retain(1, 2)", fp)
			}
		}
	}
	if st := c.Stats(); st.Entries != c.Len() || st.Entries > len(qs)*2 {
		t.Fatalf("Stats entries = %d, Len = %d, want equal and <= %d", st.Entries, c.Len(), len(qs)*2)
	}
}
