package evalcache

import "testing"

// TestLookupStore pins Shared's entry encoding: a cost and an unsupported
// verdict round-trip unchanged, and a later Store overwrites.
func TestLookupStore(t *testing.T) {
	s := NewShared()
	k0, k1 := SharedKey{Query: 1, Design: 1}, SharedKey{Query: 2, Design: 1}
	s.Store(k0, 1.5, false)
	s.Store(k1, 0, true)
	if v, uns, ok := s.Lookup(k0); !ok || uns || v != 1.5 {
		t.Fatalf("cost: got (%v, %v, %v), want (1.5, false, true)", v, uns, ok)
	}
	if v, uns, ok := s.Lookup(k1); !ok || !uns || v != 0 {
		t.Fatalf("verdict: got (%v, %v, %v), want (0, true, true)", v, uns, ok)
	}
	s.Store(k0, 2.5, false)
	if v, _, _ := s.Lookup(k0); v != 2.5 {
		t.Fatalf("overwrite: got %v, want 2.5", v)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// fill stores n entries (queries 0..n-1) in design d's table.
func fill(s *Shared, d uint64, n int) {
	for q := 0; q < n; q++ {
		s.Store(SharedKey{Query: uint64(q), Design: d}, float64(d)+float64(q)/8, false)
	}
}

// TestEvictionBoundsEntries fills a capped store with many design tables.
// Resident entries never pass the cap, every resident value is the one
// stored, a table hit on every round survives (its reference bit gives it a
// second chance), and Stats keeps counting the probes of evicted tables.
func TestEvictionBoundsEntries(t *testing.T) {
	defer SetEntryCap(40)()
	s := NewShared()
	var probes uint64
	for d := uint64(1); d <= 50; d++ {
		fill(s, d, 8)
		if n := s.Len(); n > 40 {
			t.Fatalf("after design %d: %d resident entries, cap 40", d, n)
		}
		// Design 1 is hot: hit on every round.
		if v, _, ok := s.Lookup(SharedKey{Query: 3, Design: 1}); !ok || v != 1+3.0/8 {
			t.Fatalf("after design %d: hot table lookup = (%v, %v)", d, v, ok)
		}
		probes++
	}
	resident := 0
	for d := uint64(1); d <= 50; d++ {
		for q := 0; q < 8; q++ {
			v, _, ok := s.Lookup(SharedKey{Query: uint64(q), Design: d})
			probes++
			if ok {
				resident++
				if v != float64(d)+float64(q)/8 {
					t.Fatalf("(%d, %d) = %v after eviction", d, q, v)
				}
			}
		}
	}
	if resident != s.Len() || resident == 0 {
		t.Fatalf("%d entries answer, Len %d", resident, s.Len())
	}
	st := s.Stats()
	if st.Entries != s.Len() || st.Hits+st.Misses != probes {
		t.Fatalf("Stats = %d hits + %d misses, %d entries; want %d probes, %d entries",
			st.Hits, st.Misses, st.Entries, probes, s.Len())
	}
	if st.Hits < 50+8 {
		t.Fatalf("Stats counts %d hits, want at least the hot table's 58", st.Hits)
	}
}

// TestEvictionOfAWholeOversizedTable: a table that outgrows the cap is
// evicted as a whole, and the store stays under its cap.
func TestEvictionOfAWholeOversizedTable(t *testing.T) {
	defer SetEntryCap(4)()
	s := NewShared()
	fill(s, 1, 10)
	if n := s.Len(); n > 4 {
		t.Fatalf("%d resident entries, cap 4", n)
	}
	if st := s.Stats(); st.Entries != s.Len() {
		t.Fatalf("Stats counts %d entries, Len %d", st.Entries, s.Len())
	}
}
