package evalcache

import (
	"context"
	"errors"
	"sync/atomic"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Layer is a designer.CostModel that memoizes Inner's unit costs in
// content-keyed Shared stores, keyed (Class, design fingerprint,
// workload.ContentHash). Memoized values are exactly what Inner returned, so
// a run is bit-identical with or without the layer. It is the one mechanism
// behind both kinds of reuse beyond a single run:
//
//   - Cross-tenant sharing (cliffguardd): Read and Write are the same
//     process-wide store, so every run of every tenant whose engine class,
//     query content and design coincide reuses the others' values.
//   - Online warm starts: each re-design reads the previous run's store and
//     writes a fresh one, which becomes the next run's Read. A Read hit is
//     copied into Write, so Write ends up holding every unit cost the run
//     asked for — the previous run's included (unless Write's cap evicted
//     it).
//
// When Read != Write only Read is consulted: a value the run itself computed
// earlier is its unit-cost vectors' to serve (internal/core), not the
// layer's. Probing Read never creates a table in it.
//
// A call is one read of the query's stored hash and one probe of a design
// table: the layer keeps the tables of the last design it saw, and a vector
// fill costs one design across the run's whole query universe.
//
// designer.ErrUnsupported verdicts are memoized (they are as deterministic as
// costs); hard errors are returned but never stored. Values must only ever
// be shared between identical pure cost functions: Class separates engines
// in a shared store, and an online controller's stores never leave it.
type Layer struct {
	// Inner is the cost model underneath; Class identifies it in the key
	// (engine.Engine.Class for served engines, 0 for a private store).
	Inner designer.CostModel
	Class uint64
	// Read is consulted on every call (nil: never); Write receives every
	// computed value and every Read hit. Write is required.
	Read, Write *Shared

	// hits and misses count the calls Read answered and the calls it did
	// not; the serving layer attributes both to the run's tenant once, when
	// the run ends.
	hits, misses atomic.Uint64
	// last holds the tables of the last design fingerprint Cost saw.
	last atomic.Pointer[designTables]
}

// designTables is a Layer's view of one design: its table in Write and in
// Read (nil when Read has none; the same table when Read == Write).
type designTables struct {
	key         TableKey
	read, write *table
}

// live reports whether neither table has been evicted since it was looked
// up.
func (d *designTables) live() bool {
	return !d.write.dead.Load() && (d.read == nil || !d.read.dead.Load())
}

// Hits returns how many calls Read answered without invoking Inner.
func (l *Layer) Hits() uint64 { return l.hits.Load() }

// Misses returns how many calls Read did not answer (all of them when Read
// is nil).
func (l *Layer) Misses() uint64 { return l.misses.Load() }

// tables returns the design's tables, reusing the last ones while they are
// for the same design and live.
func (l *Layer) tables(design uint64) *designTables {
	if d := l.last.Load(); d != nil && d.key.Design == design && d.live() {
		return d
	}
	d := &designTables{key: TableKey{Class: l.Class, Design: design}}
	d.write = l.Write.table(d.key, true)
	switch {
	case l.Read == l.Write:
		d.read = d.write
	case l.Read != nil:
		d.read = l.Read.table(d.key, false)
	}
	l.last.Store(d)
	return d
}

// Cost implements designer.CostModel.
func (l *Layer) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	t := l.tables(d.Fingerprint())
	h := workload.ContentHash(q)
	if l.Read != nil {
		if e, ok := l.Read.probe(t.read, h); ok {
			l.hits.Add(1)
			if l.Write != l.Read {
				l.Write.put(t.write, h, e)
			}
			if e.unsupported {
				return 0, designer.ErrUnsupported
			}
			return e.cost, nil
		}
	}
	l.misses.Add(1)
	cost, err := l.Inner.Cost(ctx, q, d)
	switch {
	case err == nil:
		l.Write.put(t.write, h, entry{cost: cost})
	case errors.Is(err, designer.ErrUnsupported):
		l.Write.put(t.write, h, entry{unsupported: true})
	}
	return cost, err
}
