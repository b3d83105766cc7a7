// Package evalcache memoizes unit costs beyond a single run: Layer is a
// designer.CostModel that stores (engine class, query content, design
// fingerprint) -> cost in Shared stores, a striped map (internal/stripe).
// Within a run, the robust loop's unit-cost vectors (internal/core) serve
// repeats, so the Layer sees each (query, design) the run fills.
package evalcache

import (
	"cliffguard/internal/obs"
	"cliffguard/internal/stripe"
)

// SharedKey identifies one memoized unit cost in a Shared store. It keys by
// content, not by query pointer:
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
// Layer: cliffguardd keeps one per process beneath every tenant's runs, and
// an online controller hands one from each re-design to the next. Values are
// pure functions of their key, so concurrent redundant computation is
// benign.
//
// The store is unbounded: nothing evicts entries, so it grows with
// |distinct designs seen| x |distinct queries|. An entry cap is open work
// (ROADMAP item 2).
type Shared struct {
	m stripe.Map[SharedKey, entry]
}

// entry is one memoized outcome: a cost, or the cost model's "query not
// supported" verdict (designer.ErrUnsupported), which is as deterministic as
// a cost and equally worth memoizing. Hard errors are never stored.
type entry struct {
	cost        float64
	unsupported bool
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
