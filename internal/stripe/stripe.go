// Package stripe provides the lock-striped map under the content-keyed
// cross-run unit-cost store (evalcache.Shared). The striping exists so that
// concurrent runs and CliffGuard's parallel vector fills — many goroutines
// costing overlapping query sets through one store — do not serialize on a
// single mutex.
//
// Each key type picks its own stripe through its Mix method, so the hash
// that spreads keys is written next to the key it spreads. The stores hold
// pure functions of their keys, which is why callers tolerate duplicate
// computation under a miss race: every writer stores the same value.
package stripe

import (
	"sync"
	"sync/atomic"

	"cliffguard/internal/obs"
)

// numShards is the stripe count. Must be a power of two. 64 stripes keep the
// collision probability negligible for the worker counts CliffGuard runs
// (bounded by runtime.NumCPU()).
const numShards = 64

// Key is a map key that chooses its stripe: Mix must be a pure function of
// the key whose low bits spread keys evenly, or parallel evaluation
// serializes on a few locks again.
type Key interface {
	comparable
	Mix() uint64
}

type shard[K Key, V any] struct {
	mu sync.RWMutex
	m  map[K]V // nil until the first Store
	// Hit/miss tallies live outside the map lock: Lookup under heavy
	// parallel evaluation must not contend on anything but the stripe's
	// RLock, so the counters are plain atomics.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Map is a lock-striped map from K to V with per-stripe hit/miss counters.
// The zero value is an empty map ready to use; a Map must not be copied
// after first use.
type Map[K Key, V any] struct {
	shards [numShards]shard[K, V]
}

func (m *Map[K, V]) shardFor(k K) *shard[K, V] {
	return &m.shards[k.Mix()&(numShards-1)]
}

// Lookup returns the value stored for k, if any, and counts a hit or a miss.
func (m *Map[K, V]) Lookup(k K) (V, bool) {
	s := m.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Store sets the value for k.
func (m *Map[K, V]) Store(k K, v V) {
	s := m.shardFor(k)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]V)
	}
	s.m[k] = v
	s.mu.Unlock()
}

// Len returns the total number of entries (diagnostics and tests).
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Stats snapshots hit/miss tallies and entry counts, per stripe and in
// aggregate, in the shape obs.Metrics.RegisterCache consumes. The snapshot
// is not atomic across stripes (each is read independently), which is fine
// for monitoring.
func (m *Map[K, V]) Stats() obs.CacheStats {
	var out obs.CacheStats
	out.Shards = make([]obs.CacheShardStats, numShards)
	for i := range m.shards {
		s := &m.shards[i]
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
