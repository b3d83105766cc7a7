package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestColSetBasics(t *testing.T) {
	var s ColSet
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("zero ColSet should be empty")
	}
	s.Add(3)
	s.Add(70) // second word
	s.Add(3)  // duplicate
	if s.Len() != 2 || !s.Has(3) || !s.Has(70) || s.Has(4) {
		t.Fatalf("unexpected set state: %v", s)
	}
	s.Remove(3)
	if s.Has(3) || s.Len() != 1 {
		t.Fatal("Remove failed")
	}
	s.Remove(-1)  // no-op
	s.Remove(999) // absent, beyond words: no-op
	if s.Len() != 1 {
		t.Fatal("no-op removes changed the set")
	}
	if s.Has(-1) {
		t.Fatal("negative ID should never be present")
	}
}

func TestColSetAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	var s ColSet
	s.Add(-1)
}

func TestColSetOps(t *testing.T) {
	a := NewColSet(1, 2, 3, 100)
	b := NewColSet(3, 4, 100, 200)

	if got := a.Union(b).IDs(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 100, 200}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).IDs(); !reflect.DeepEqual(got, []int{3, 100}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b).IDs(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Minus = %v", got)
	}
	if !a.Union(b).Contains(a) || !a.Union(b).Contains(b) {
		t.Error("union should contain both operands")
	}
	if a.Contains(b) {
		t.Error("a should not contain b")
	}
	if got := a.Hamming(b); got != 4 { // {1,2} vs {4,200}
		t.Errorf("Hamming = %d, want 4", got)
	}
	if a.Hamming(a) != 0 {
		t.Error("Hamming(x,x) != 0")
	}
}

func TestColSetEqualAcrossWordLengths(t *testing.T) {
	a := NewColSet(1)
	b := NewColSet(1, 100)
	b.Remove(100) // b now has trailing zero words
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("logically equal sets with different word lengths should be Equal")
	}
	if a.Key() != b.Key() {
		t.Fatalf("Keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestColSetCloneIndependence(t *testing.T) {
	a := NewColSet(1, 2)
	c := a.Clone()
	c.Add(3)
	if a.Has(3) {
		t.Fatal("Clone should be independent")
	}
}

func TestColSetString(t *testing.T) {
	if got := NewColSet(5, 1, 9).String(); got != "{1,5,9}" {
		t.Errorf("String = %q", got)
	}
	if got := (ColSet{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// randomSet builds a ColSet from quick's random values, bounded to IDs < 300.
func randomSet(rng *rand.Rand) ColSet {
	var s ColSet
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		s.Add(rng.Intn(300))
	}
	return s
}

func TestColSetProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	// Hamming is symmetric and satisfies the triangle inequality.
	symmetric := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		return a.Hamming(b) == b.Hamming(a)
	}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Error(err)
	}

	triangle := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomSet(rng), randomSet(rng), randomSet(rng)
		return a.Hamming(c) <= a.Hamming(b)+b.Hamming(c)
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Error(err)
	}

	// |A| + |B| = |A union B| + |A intersect B|.
	inclusionExclusion := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		return a.Len()+b.Len() == a.Union(b).Len()+a.Intersect(b).Len()
	}
	if err := quick.Check(inclusionExclusion, cfg); err != nil {
		t.Error(err)
	}

	// Hamming = |union| - |intersection|.
	hammingIdentity := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		return a.Hamming(b) == a.Union(b).Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(hammingIdentity, cfg); err != nil {
		t.Error(err)
	}

	// Minus then union with the intersection reconstructs the set.
	reconstruct := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		return a.Minus(b).Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(reconstruct, cfg); err != nil {
		t.Error(err)
	}

	// Keys are canonical: equal sets share keys, distinct sets do not.
	keyCanonical := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(keyCanonical, cfg); err != nil {
		t.Error(err)
	}

	// IDs round-trips through NewColSet.
	roundTrip := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSet(rng)
		return NewColSet(a.IDs()...).Equal(a)
	}
	if err := quick.Check(roundTrip, cfg); err != nil {
		t.Error(err)
	}
}

// TestColSetCountsMatchBuiltSets: UnionLen and IntersectLen count exactly
// the sets Union and Intersect build, across word lengths and with trailing
// zero words on either side.
func TestColSetCountsMatchBuiltSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randSet := func() ColSet {
		var s ColSet
		for i := rng.Intn(6); i > 0; i-- {
			s.Add(rng.Intn(200))
		}
		if rng.Intn(3) == 0 {
			s.grow(len(s.words) + rng.Intn(2)) // trailing zero words
		}
		return s
	}
	for i := 0; i < 2000; i++ {
		a, b := randSet(), randSet()
		if got, want := a.UnionLen(b), a.Union(b).Len(); got != want {
			t.Fatalf("%v.UnionLen(%v) = %d, want %d", a, b, got, want)
		}
		if got, want := a.IntersectLen(b), a.Intersect(b).Len(); got != want {
			t.Fatalf("%v.IntersectLen(%v) = %d, want %d", a, b, got, want)
		}
	}
}
