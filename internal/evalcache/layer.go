package evalcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Layer is a designer.CostModel that memoizes Inner's unit costs in
// content-keyed Shared stores, keyed (Class, workload.ContentHash, design
// fingerprint). Memoized values are exactly what Inner returned, so a run is
// bit-identical with or without the layer. It is the one mechanism behind
// both kinds of reuse beyond a single run:
//
//   - Cross-tenant sharing (cliffguardd): Read and Write are the same
//     process-wide store, so every run of every tenant whose engine class,
//     query content and design coincide reuses the others' values.
//   - Online warm starts: each re-design reads the previous run's store and
//     writes a fresh one, which becomes the next run's Read. A Read hit is
//     copied into Write, so Write ends up holding every unit cost the run
//     asked for — the previous run's included.
//
// When Read != Write only Read is consulted: a value the run itself computed
// earlier is its unit-cost vectors' to serve (internal/core), not the
// layer's.
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
	// qh memoizes workload.ContentHash by query pointer: a run costs the
	// same few hundred queries many thousands of times.
	qh sync.Map // *workload.Query -> uint64
}

// Hits returns how many calls Read answered without invoking Inner.
func (l *Layer) Hits() uint64 { return l.hits.Load() }

// Misses returns how many calls Read did not answer (all of them when Read
// is nil).
func (l *Layer) Misses() uint64 { return l.misses.Load() }

func (l *Layer) queryHash(q *workload.Query) uint64 {
	if v, ok := l.qh.Load(q); ok {
		return v.(uint64)
	}
	h := workload.ContentHash(q)
	l.qh.Store(q, h)
	return h
}

// Cost implements designer.CostModel.
func (l *Layer) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	key := SharedKey{Class: l.Class, Query: l.queryHash(q), Design: d.Fingerprint()}
	if l.Read != nil {
		if cost, unsupported, ok := l.Read.Lookup(key); ok {
			l.hits.Add(1)
			if l.Write != l.Read {
				l.Write.Store(key, cost, unsupported)
			}
			if unsupported {
				return 0, designer.ErrUnsupported
			}
			return cost, nil
		}
	}
	l.misses.Add(1)
	cost, err := l.Inner.Cost(ctx, q, d)
	switch {
	case err == nil:
		l.Write.Store(key, cost, false)
	case errors.Is(err, designer.ErrUnsupported):
		l.Write.Store(key, 0, true)
	}
	return cost, err
}
