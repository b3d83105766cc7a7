// Package stripe provides the lock-striped map under the content-keyed
// cross-run unit-cost store: evalcache.Shared keeps one unit-cost table per
// (engine class, design) in a Map. The striping exists so that concurrent
// runs opening and evicting tables do not serialize on a single mutex; the
// per-query probes themselves go to a table the caller already holds.
//
// Each key type picks its own stripe through its Mix method, so the hash
// that spreads keys is written next to the key it spreads. Each stripe also
// keeps hit/miss tallies that its owner adds to (Miss, Delete) and that
// Stats sums with the owner's per-value counters, so a store whose values
// are tables can report per-stripe figures without counting twice.
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
	// Hit/miss tallies are atomics, so that Miss takes no lock; Delete adds
	// to them under mu, under which Stats reads them.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Map is a lock-striped map from K to V with per-stripe hit/miss tallies.
// The zero value is an empty map ready to use; a Map must not be copied
// after first use.
type Map[K Key, V any] struct {
	shards [numShards]shard[K, V]
}

func (m *Map[K, V]) shardFor(k K) *shard[K, V] {
	return &m.shards[k.Mix()&(numShards-1)]
}

// Lookup returns the value stored for k, if any. It counts nothing: what a
// hit or a miss is depends on the owner's values (see Miss).
func (m *Map[K, V]) Lookup(k K) (V, bool) {
	s := m.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
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

// Delete removes k, if present, and adds hits and misses to its stripe's
// tallies: an owner retiring a value with counters of its own moves them to
// the stripe. Both happen under the stripe's lock, under which Stats reads,
// so a snapshot counts them exactly once.
func (m *Map[K, V]) Delete(k K, hits, misses uint64) {
	s := m.shardFor(k)
	s.mu.Lock()
	delete(s.m, k)
	s.hits.Add(hits)
	s.misses.Add(misses)
	s.mu.Unlock()
}

// Miss counts one miss on k's stripe: a probe that found no value to count
// it on.
func (m *Map[K, V]) Miss(k K) { m.shardFor(k).misses.Add(1) }

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
// aggregate, in the shape obs.Metrics.RegisterCache consumes. A stripe's row
// is its own tallies (Miss, Delete) plus value(v) summed over the values it
// holds; value is called under the stripe's read lock. The snapshot is not
// atomic across stripes (each is read independently), which is fine for
// monitoring.
func (m *Map[K, V]) Stats(value func(V) obs.CacheShardStats) obs.CacheStats {
	var out obs.CacheStats
	out.Shards = make([]obs.CacheShardStats, numShards)
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		sh := obs.CacheShardStats{Hits: s.hits.Load(), Misses: s.misses.Load()}
		for _, v := range s.m {
			vs := value(v)
			sh.Hits += vs.Hits
			sh.Misses += vs.Misses
			sh.Entries += vs.Entries
		}
		s.mu.RUnlock()
		out.Shards[i] = sh
		out.Hits += sh.Hits
		out.Misses += sh.Misses
		out.Entries += sh.Entries
	}
	return out
}
