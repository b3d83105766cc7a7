// Package evalcache memoizes unit costs beyond a single run: Layer is a
// designer.CostModel that stores (engine class, design fingerprint, query
// content) -> cost in a Shared store. A Shared keeps one table per (engine
// class, design) in a map under its mutex; each table is a plain map keyed
// by the query's content hash (workload.ContentHash, carried on the Query).
// Resident entries are capped, and CLOCK eviction drops whole tables. Within
// a run, the robust loop's unit-cost vectors (internal/core) serve repeats,
// so the Layer sees each (query, design) the run fills, one design across
// the run's whole query universe at a time.
package evalcache

import (
	"sync"
	"sync/atomic"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
)

// maxEntries caps a Shared's resident unit costs. cliffguardd's served-mix
// benchmark settles at about 127.5k entries; the cap sits well above that,
// so eviction starts only in a process that has seen many times more
// designs.
const maxEntries = 1 << 20

// entryCap is the cap NewShared gives a store: maxEntries, lowered only by
// tests (export_test.go) to drive eviction.
var entryCap int64 = maxEntries

// TableKey names one table of a Shared store: the unit costs of one design
// under one engine class. Within it a unit cost is keyed by content, not by
// query pointer:
//
//   - Class is the engine's cost-model class fingerprint (engine kind +
//     schema): two tenants share entries only when their cost models are
//     interchangeable pure functions.
//   - Design is the design fingerprint (designer.Design.Fingerprint).
//   - The table's key is workload.ContentHash of the query — identical SQL
//     parsed by two different tenants hashes identically even though the
//     Query pointers and IDs differ.
//
// A value is therefore valid for every (tenant, run) whose engine class,
// query content, and design coincide — which is what turns the second tenant
// submitting a popular workload into a warm-cache run.
type TableKey struct {
	Class  uint64
	Design uint64
}

// Shared is a content-keyed unit-cost store, read and written through a
// Layer: cliffguardd keeps one per process beneath every tenant's runs,
// batch and online. Values are pure functions of their key, so concurrent
// redundant computation is benign: every writer stores the same value.
//
// The store holds at most entryCap entries. Past the cap, a CLOCK sweep
// (second chance) over the tables drops whole tables: a hit sets a table's
// reference bit, and the hand clears set bits and evicts the first table
// whose bit was clear. Eviction changes hit rates, never a value.
type Shared struct {
	entries atomic.Int64 // resident entries over all live tables
	limit   int64

	// mu guards the directory of tables and serializes creating and
	// evicting them; clock is the ring the hand sweeps, in creation order.
	// A Layer looks a design's tables up once per design change, so the
	// directory sees about one probe per scored design.
	mu     sync.Mutex
	tables map[TableKey]*table
	clock  []*table
	hand   int
	// hits and misses tally the probes no live table counts: those of
	// evicted tables, which evict moves here under mu, and probes that
	// found no table (misses).
	hits, misses atomic.Uint64
}

// table is the unit costs of one (engine class, design), keyed by query
// content hash. Its counters count the probes it answered; when it is
// evicted they move to the store's tallies, so Stats keeps counting them.
type table struct {
	key TableKey
	// ref is the CLOCK reference bit. dead marks an evicted table, whose
	// probes miss and whose stores are dropped; it is set under mu, under
	// which the counters move, so none is counted twice or lost.
	ref, dead    atomic.Bool
	hits, misses atomic.Uint64

	mu sync.RWMutex
	m  map[uint64]entry
}

// entry is one memoized outcome: a cost, or the cost model's "query not
// supported" verdict (designer.ErrUnsupported), which is as deterministic as
// a cost and equally worth memoizing. Hard errors are never stored.
type entry struct {
	cost        float64
	unsupported bool
}

// result is the memoized outcome as the cost model returned it.
func (e entry) result() (float64, error) {
	if e.unsupported {
		return 0, designer.ErrUnsupported
	}
	return e.cost, nil
}

// NewShared returns an empty shared memo.
func NewShared() *Shared {
	return &Shared{limit: entryCap, tables: make(map[TableKey]*table)}
}

// table returns the table for k. When none exists it creates one if create
// is set, and returns nil otherwise.
func (s *Shared) table(k TableKey, create bool) *table {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[k]
	if !ok && create {
		t = &table{key: k, m: make(map[uint64]entry)}
		s.tables[k] = t
		s.clock = append(s.clock, t)
	}
	return t
}

// probe looks query hash q up in t (nil when there is no table) and counts
// the hit or miss: on t while it is live, in the store's misses otherwise.
func (s *Shared) probe(t *table, q uint64) (entry, bool) {
	if t != nil {
		t.mu.RLock()
		if !t.dead.Load() {
			e, ok := t.m[q]
			if ok {
				t.hits.Add(1)
				if !t.ref.Load() {
					t.ref.Store(true)
				}
			} else {
				t.misses.Add(1)
			}
			t.mu.RUnlock()
			return e, ok
		}
		t.mu.RUnlock()
	}
	s.misses.Add(1)
	return entry{}, false
}

// probeBlock looks every query hash of hs up in t (nil when there is no
// table) under one read lock, setting es[k] and found[k], and counts the
// block's hits and misses once, as probe would one by one. It returns the
// number of hits.
func (s *Shared) probeBlock(t *table, hs []uint64, es []entry, found []bool) int {
	hits := 0
	if t != nil {
		t.mu.RLock()
		if !t.dead.Load() {
			for k, h := range hs {
				es[k], found[k] = t.m[h]
				if found[k] {
					hits++
				}
			}
			t.hits.Add(uint64(hits))
			t.misses.Add(uint64(len(hs) - hits))
			if hits > 0 && !t.ref.Load() {
				t.ref.Store(true)
			}
			t.mu.RUnlock()
			return hits
		}
		t.mu.RUnlock()
	}
	clear(found[:len(hs)])
	s.misses.Add(uint64(len(hs)))
	return 0
}

// putBlock memoizes es[k] for query hash hs[k] in t under one lock, as put
// would one by one.
func (s *Shared) putBlock(t *table, hs []uint64, es []entry) {
	if len(hs) == 0 {
		return
	}
	t.mu.Lock()
	if t.dead.Load() {
		t.mu.Unlock()
		return
	}
	n := len(t.m)
	for k, h := range hs {
		t.m[h] = es[k]
	}
	grew := int64(len(t.m) - n)
	t.mu.Unlock()
	if grew > 0 && s.entries.Add(grew) > s.limit {
		s.evict()
	}
}

// put memoizes e for query hash q in t, unless t has been evicted, and
// evicts tables once the store is over its cap.
func (s *Shared) put(t *table, q uint64, e entry) {
	t.mu.Lock()
	if t.dead.Load() {
		t.mu.Unlock()
		return
	}
	n := len(t.m)
	t.m[q] = e
	grew := len(t.m) > n
	t.mu.Unlock()
	if grew && s.entries.Add(1) > s.limit {
		s.evict()
	}
}

// evict runs the CLOCK hand until the store is back under its cap.
func (s *Shared) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.entries.Load() > s.limit && len(s.clock) > 0 {
		if s.hand >= len(s.clock) {
			s.hand = 0
		}
		t := s.clock[s.hand]
		if t.ref.Swap(false) {
			s.hand++
			continue
		}
		s.clock = append(s.clock[:s.hand], s.clock[s.hand+1:]...)
		t.mu.Lock()
		t.dead.Store(true)
		n := len(t.m)
		t.m = nil
		t.mu.Unlock()
		s.entries.Add(-int64(n))
		delete(s.tables, t.key)
		s.hits.Add(t.hits.Load())
		s.misses.Add(t.misses.Load())
	}
}

// Len returns the number of resident entries.
func (s *Shared) Len() int { return int(s.entries.Load()) }

// Stats snapshots query-level hit/miss tallies and the entry count in the
// shape obs.Metrics.RegisterCache consumes: the live tables' counters plus
// the store's own tallies. evict moves a table's counters under mu, under
// which Stats reads, so each probe is counted exactly once.
func (s *Shared) Stats() obs.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := obs.CacheStats{Hits: s.hits.Load(), Misses: s.misses.Load()}
	for _, t := range s.tables {
		t.mu.RLock()
		out.Entries += len(t.m)
		t.mu.RUnlock()
		out.Hits += t.hits.Load()
		out.Misses += t.misses.Load()
	}
	return out
}
