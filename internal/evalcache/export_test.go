package evalcache

// SetEntryCap sets the entry cap of the stores NewShared makes from now on
// and returns a function that restores the default. Tests that call it must
// not run in parallel.
func SetEntryCap(n int) (restore func()) {
	entryCap = int64(n)
	return func() { entryCap = maxEntries }
}

// SharedKey is one unit cost's full key in a Shared store: the TableKey
// words plus the query's content hash.
type SharedKey struct {
	Class  uint64
	Query  uint64
	Design uint64
}

// Lookup returns the memoized unit cost for the key, if present, and counts
// the probe. unsupported reports a memoized designer.ErrUnsupported verdict
// (cost is 0 then).
func (s *Shared) Lookup(k SharedKey) (cost float64, unsupported, ok bool) {
	e, ok := s.probe(s.table(TableKey{Class: k.Class, Design: k.Design}, false), k.Query)
	return e.cost, e.unsupported, ok
}

// Store memoizes the unit cost (or the unsupported verdict) for the key.
func (s *Shared) Store(k SharedKey, cost float64, unsupported bool) {
	t := s.table(TableKey{Class: k.Class, Design: k.Design}, true)
	s.put(t, k.Query, entry{cost: cost, unsupported: unsupported})
}
