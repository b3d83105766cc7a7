// Package evalcache provides a sharded (lock-striped) memoization cache for
// per-(query, design-fingerprint) unit costs — the evaluation-layer analogue
// of internal/costcache. CliffGuard's workload cost f(W, D) is linear in the
// item weights (a weighted mean of per-query what-if costs), so once every
// query of a neighborhood has been costed under a design fingerprint, every
// further workload evaluation under that design is a pure dot product with
// zero cost-model calls.
//
// The striping mirrors costcache: shards are selected by mixing the query ID
// with the design fingerprint, so the parallel evaluator's goroutines almost
// always take different locks. Values are pure functions of their key (the
// cost models are deterministic), which is why concurrent misses on the same
// key may compute redundantly and both store the same number.
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
	"sync"
	"sync/atomic"

	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// numShards is the stripe count. Must be a power of two; 64 matches
// costcache and keeps collision probability negligible for NumCPU-bounded
// worker counts.
const numShards = 64

type cacheKey struct {
	q  *workload.Query
	fp uint64
}

// entry is one memoized outcome: a cost, or the cost model's "query not
// supported" verdict (designer.ErrUnsupported), which is as deterministic as
// a cost and equally worth memoizing. Hard errors (cancellation, cost-model
// failure) are never stored.
type entry struct {
	cost        float64
	unsupported bool
}

type shard struct {
	mu sync.RWMutex
	m  map[cacheKey]entry
	// Hit/miss tallies live outside the map lock (plain atomics), same as
	// costcache: Lookup on the hot path must contend only on the RLock.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Cache memoizes unit costs per (query, design-fingerprint) pair. The zero
// value is not usable; call New.
type Cache struct {
	shards [numShards]shard
}

// New returns an empty cache.
func New() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]entry)
	}
	return c
}

// shardFor picks the stripe for a (query, fingerprint) pair: a
// splitmix64-style mix of the query ID and the design fingerprint.
func (c *Cache) shardFor(q *workload.Query, fp uint64) *shard {
	h := (uint64(q.ID) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= fp
	h *= 0x94d049bb133111eb
	h ^= h >> 33
	return &c.shards[h&(numShards-1)]
}

// Lookup returns the memoized unit cost of q under the design with
// fingerprint fp, if present. unsupported reports a memoized
// designer.ErrUnsupported verdict (cost is 0 in that case).
func (c *Cache) Lookup(q *workload.Query, fp uint64) (cost float64, unsupported, ok bool) {
	s := c.shardFor(q, fp)
	s.mu.RLock()
	e, ok := s.m[cacheKey{q, fp}]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e.cost, e.unsupported, ok
}

// Store memoizes the unit cost (or the unsupported verdict) for the pair.
func (c *Cache) Store(q *workload.Query, fp uint64, cost float64, unsupported bool) {
	s := c.shardFor(q, fp)
	s.mu.Lock()
	s.m[cacheKey{q, fp}] = entry{cost: cost, unsupported: unsupported}
	s.mu.Unlock()
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
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.m {
			if !keep[k.fp] {
				delete(s.m, k)
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the total number of memoized pairs (diagnostics and tests).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Stats snapshots hit/miss tallies and entry counts, per shard and in
// aggregate, in the shape obs.Metrics.RegisterCache consumes. The snapshot
// is not atomic across shards, which is fine for monitoring.
func (c *Cache) Stats() obs.CacheStats {
	var out obs.CacheStats
	out.Shards = make([]obs.CacheShardStats, numShards)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		entries := len(s.m)
		s.mu.RUnlock()
		sh := obs.CacheShardStats{
			Hits:    s.hits.Load(),
			Misses:  s.misses.Load(),
			Entries: entries,
		}
		out.Shards[i] = sh
		out.Hits += sh.Hits
		out.Misses += sh.Misses
		out.Entries += sh.Entries
	}
	return out
}
