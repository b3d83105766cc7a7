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
