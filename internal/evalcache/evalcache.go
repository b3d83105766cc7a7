// Package evalcache provides a lock-striped memoization cache for
// per-(query, design-fingerprint) unit costs, on a striped map
// (internal/stripe).
// CliffGuard's workload cost f(W, D) is linear in the item weights (a
// weighted mean of per-query what-if costs), so once every query of a
// neighborhood has been costed under a design fingerprint, every further
// workload evaluation under that design is a pure dot product with zero
// cost-model calls.
//
// Stripes are selected by mixing the query ID with the design fingerprint,
// so the parallel evaluator's goroutines almost always take different locks.
// Values are pure functions of their key (the cost models are
// deterministic), which is why concurrent misses on the same key may compute
// redundantly and both store the same number.
//
// Memory is bounded by two-generation eviction: after each robust-loop
// iteration the caller calls Retain with the incumbent and candidate design
// fingerprints, dropping every unit cost memoized under a design the loop
// can no longer revisit.
//
// Reuse beyond one run happens beneath the Cache, in the cost model: a Layer
// wraps it and memoizes by content in Shared stores (cross-tenant in
// cliffguardd, run-to-run in online mode).
package evalcache

import (
	"cliffguard/internal/obs"
	"cliffguard/internal/stripe"
	"cliffguard/internal/workload"
)

// Key identifies one memoized unit cost in a Cache: the query pointer and
// the design fingerprint (designer.Design.Fingerprint).
type Key struct {
	Q      *workload.Query
	Design uint64
}

// Mix implements stripe.Key: a splitmix64-style mix of the query ID and the
// design fingerprint.
func (k Key) Mix() uint64 {
	h := (uint64(k.Q.ID) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= k.Design
	h *= 0x94d049bb133111eb
	h ^= h >> 33
	return h
}

// entry is one memoized outcome: a cost, or the cost model's "query not
// supported" verdict (designer.ErrUnsupported), which is as deterministic as
// a cost and equally worth memoizing. Hard errors (cancellation, cost-model
// failure) are never stored.
type entry struct {
	cost        float64
	unsupported bool
}

// Cache memoizes unit costs per (query, design-fingerprint) pair.
type Cache struct {
	m stripe.Map[Key, entry]
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

// Lookup returns the memoized unit cost of q under the design with
// fingerprint fp, if present. unsupported reports a memoized
// designer.ErrUnsupported verdict (cost is 0 in that case).
func (c *Cache) Lookup(q *workload.Query, fp uint64) (cost float64, unsupported, ok bool) {
	e, ok := c.m.Lookup(Key{q, fp})
	return e.cost, e.unsupported, ok
}

// Store memoizes the unit cost (or the unsupported verdict) for the pair.
func (c *Cache) Store(q *workload.Query, fp uint64, cost float64, unsupported bool) {
	c.m.Store(Key{q, fp}, entry{cost: cost, unsupported: unsupported})
}

// Retain drops every entry whose design fingerprint is not in fps — the
// two-generation eviction bound: the robust loop calls it each iteration with
// the incumbent and candidate fingerprints, so the cache never holds unit
// costs for more designs than the loop can still revisit.
func (c *Cache) Retain(fps ...uint64) {
	keep := make(map[uint64]bool, len(fps))
	for _, fp := range fps {
		keep[fp] = true
	}
	c.m.DeleteFunc(func(k Key) bool { return !keep[k.Design] })
}

// Len returns the total number of memoized pairs (diagnostics and tests).
func (c *Cache) Len() int { return c.m.Len() }

// Stats snapshots hit/miss tallies and entry counts in the shape
// obs.Metrics.RegisterCache consumes.
func (c *Cache) Stats() obs.CacheStats { return c.m.Stats() }
