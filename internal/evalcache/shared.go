package evalcache

import (
	"cliffguard/internal/obs"
	"cliffguard/internal/stripe"
)

// SharedKey identifies one memoized unit cost in a Shared store. Unlike the
// per-run Cache (which keys by query *pointer* — the fastest possible
// identity inside one process-local run), Shared keys by content:
//
//   - Class is the engine's cost-model class fingerprint (engine kind +
//     schema): two tenants share entries only when their cost models are
//     interchangeable pure functions.
//   - Query is workload.ContentHash of the query — identical SQL parsed by
//     two different tenants hashes identically even though the Query pointers
//     and IDs differ.
//   - Design is the design fingerprint (designer.Design.Fingerprint).
//
// A value is therefore valid for every (tenant, run) whose engine class,
// query content, and design coincide — which is what turns the second tenant
// submitting a popular workload into a warm-cache run.
type SharedKey struct {
	Class  uint64
	Query  uint64
	Design uint64
}

// Mix implements stripe.Key over all three key words.
func (k SharedKey) Mix() uint64 {
	h := (k.Query + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= k.Design
	h *= 0x94d049bb133111eb
	h ^= k.Class
	h ^= h >> 33
	return h
}

// Shared is a content-keyed unit-cost store, read and written through a
// Layer: cliffguardd keeps one per process beneath every tenant's per-run
// Cache, and an online controller hands one from each re-design to the next.
// It is the same striped map as Cache; values are pure functions of their
// key, so concurrent redundant computation is benign.
//
// The store is unbounded: nothing evicts entries, so it grows with
// |distinct designs seen| x |distinct queries|. An entry cap is open work
// (ROADMAP item 2).
type Shared struct {
	m stripe.Map[SharedKey, entry]
}

// NewShared returns an empty shared memo.
func NewShared() *Shared { return &Shared{} }

// Lookup returns the memoized unit cost for the key, if present. unsupported
// reports a memoized designer.ErrUnsupported verdict (cost is 0 then).
func (s *Shared) Lookup(k SharedKey) (cost float64, unsupported, ok bool) {
	e, ok := s.m.Lookup(k)
	return e.cost, e.unsupported, ok
}

// Store memoizes the unit cost (or the unsupported verdict) for the key.
// Hard errors must never be stored; the caller enforces that.
func (s *Shared) Store(k SharedKey, cost float64, unsupported bool) {
	s.m.Store(k, entry{cost: cost, unsupported: unsupported})
}

// Len returns the total number of memoized entries.
func (s *Shared) Len() int { return s.m.Len() }

// Stats snapshots hit/miss tallies and entry counts in the shape
// obs.Metrics.RegisterCache consumes.
func (s *Shared) Stats() obs.CacheStats { return s.m.Stats() }
