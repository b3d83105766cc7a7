// Package costcache provides a sharded (lock-striped) memoization cache for
// per-(query, access-path) what-if cost estimates. All three engine
// simulators memoize path costs through it; the striping exists so that
// CliffGuard's parallel neighborhood evaluation — many goroutines costing
// overlapping query sets — does not serialize on a single cache mutex.
//
// Entries are keyed by the query pointer and a uint64 access-path
// fingerprint: 0 is the engine's structure-free path (the super-projection
// or full scan), and a structure's path is PathKey of its Structure.Key,
// computed once when the structure is built. A memo hit therefore hashes
// two words and allocates nothing.
//
// Collision contract: PathKey is a 64-bit FNV-1a hash, so two distinct
// structures of one engine could in principle share a fingerprint and
// then share memoized costs. This is the same contract Design.Fingerprint
// gives the design-level memos: among n structures the chance of any
// collision is about n²/2^65, under 1e-11 for ten thousand structures.
//
// Shards are selected by mixing the query ID with the path fingerprint, so
// concurrent evaluations of different (query, path) pairs almost always take
// different locks. Values are pure functions of their key, which is why
// GetOrCompute tolerates duplicate computation under a miss race: both
// writers store the same number.
package costcache

import (
	"sync"
	"sync/atomic"

	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// numShards is the stripe count. Must be a power of two. 64 stripes keep the
// collision probability negligible for the worker counts CliffGuard runs
// (bounded by runtime.NumCPU()).
const numShards = 64

type cacheKey struct {
	q    *workload.Query
	path uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// PathKey returns the memo fingerprint of a structure key: FNV-1a over its
// bytes, remapped away from 0 (the structure-free path). Engines call it
// once per structure, at construction.
func PathKey(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	if h == 0 {
		h = 1
	}
	return h
}

type shard struct {
	mu sync.RWMutex
	m  map[cacheKey]float64
	// Hit/miss tallies live outside the map lock: Lookup under heavy
	// parallel evaluation must not contend on anything but the stripe's
	// RLock, so the counters are plain atomics.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Cache memoizes float64 costs per (query, path) pair. The zero value is not
// usable; call New.
type Cache struct {
	shards [numShards]shard
}

// New returns an empty cache.
func New() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]float64)
	}
	return c
}

// shardFor picks the stripe for a (query, path) pair: a multiplicative mix
// of the query ID and the path fingerprint.
func (c *Cache) shardFor(q *workload.Query, path uint64) *shard {
	h := uint64(q.ID)*0x9e3779b97f4a7c15 ^ path
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &c.shards[h&(numShards-1)]
}

// Lookup returns the memoized cost for the pair, if present.
func (c *Cache) Lookup(q *workload.Query, path uint64) (float64, bool) {
	s := c.shardFor(q, path)
	s.mu.RLock()
	v, ok := s.m[cacheKey{q, path}]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Store memoizes the cost for the pair.
func (c *Cache) Store(q *workload.Query, path uint64, cost float64) {
	s := c.shardFor(q, path)
	s.mu.Lock()
	s.m[cacheKey{q, path}] = cost
	s.mu.Unlock()
}

// GetOrCompute returns the memoized cost for the pair, invoking compute and
// storing its result on a miss. compute runs outside any lock: concurrent
// misses on the same pair may compute redundantly, but the cost models are
// pure, so every writer stores the same value.
func (c *Cache) GetOrCompute(q *workload.Query, path uint64, compute func() float64) float64 {
	if v, ok := c.Lookup(q, path); ok {
		return v
	}
	v := compute()
	c.Store(q, path, v)
	return v
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
// is not atomic across shards (each stripe is read independently), which is
// fine for monitoring.
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
