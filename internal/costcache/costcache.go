// Package costcache memoizes per-(query, access-path) what-if cost estimates
// for the three engine simulators, in a lock-striped map (internal/stripe)
// so that CliffGuard's parallel neighborhood evaluation does not serialize
// on a single cache mutex.
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
// Stripes are selected by mixing the query ID with the path fingerprint, so
// concurrent evaluations of different (query, path) pairs almost always take
// different locks. Values are pure functions of their key, which is why
// GetOrCompute tolerates duplicate computation under a miss race: both
// writers store the same number.
package costcache

import (
	"cliffguard/internal/stripe"
	"cliffguard/internal/workload"
)

// Key identifies one memoized path cost.
type Key struct {
	Q    *workload.Query
	Path uint64
}

// Mix implements stripe.Key: a multiplicative mix of the query ID and the
// path fingerprint.
func (k Key) Mix() uint64 {
	h := uint64(k.Q.ID)*0x9e3779b97f4a7c15 ^ k.Path
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
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

// Cache memoizes float64 costs per (query, path) pair.
type Cache struct {
	stripe.Map[Key, float64]
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

// GetOrCompute returns the memoized cost for the pair, invoking compute and
// storing its result on a miss. compute runs outside any lock: concurrent
// misses on the same pair may compute redundantly, but the cost models are
// pure, so every writer stores the same value.
func (c *Cache) GetOrCompute(q *workload.Query, path uint64, compute func() float64) float64 {
	k := Key{q, path}
	if v, ok := c.Lookup(k); ok {
		return v
	}
	v := compute()
	c.Store(k, v)
	return v
}
