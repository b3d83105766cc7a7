package evalcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Layer is a designer.CostModel that memoizes Inner's unit costs in a
// content-keyed Shared store, keyed (Class, design fingerprint,
// workload.ContentHash). Memoized values are exactly what Inner returned, so
// a run is bit-identical with or without the layer. cliffguardd puts one
// process-wide Store beneath every tenant's runs, batch and online alike, so
// every run whose engine class, query content and design coincide with an
// earlier one's reuses its values. Within a run, the run's unit-cost vectors
// (internal/core) serve repeats, so the layer sees the (query, design) pairs
// the run fills.
//
// A call is one read of the query's stored hash and one probe of a design
// table: the layer keeps the table of the last design it saw, and a vector
// fill costs one design across the run's whole query universe.
//
// designer.ErrUnsupported verdicts are memoized (they are as deterministic as
// costs); hard errors are returned but never stored. Values must only ever
// be shared between identical pure cost functions: Class separates engines
// in a shared store.
type Layer struct {
	// Inner is the cost model underneath; Class identifies it in the key
	// (engine.Engine.Class for served engines, 0 for a private store).
	Inner designer.CostModel
	Class uint64
	// Store answers every call it holds and receives every value Inner
	// computes. It is required.
	Store *Shared

	// hits and misses count the calls Store answered and the calls it did
	// not; the serving layer attributes both to the run's tenant once, when
	// the run ends.
	hits, misses atomic.Uint64
	// last is the table of the last design fingerprint the layer saw.
	last atomic.Pointer[table]
}

// Hits returns how many calls Store answered without invoking Inner.
func (l *Layer) Hits() uint64 { return l.hits.Load() }

// Misses returns how many calls Store did not answer.
func (l *Layer) Misses() uint64 { return l.misses.Load() }

// table returns the design's table, reusing the last one while it is for
// the same design and has not been evicted.
func (l *Layer) table(design uint64) *table {
	if t := l.last.Load(); t != nil && t.key.Design == design && !t.dead.Load() {
		return t
	}
	t := l.Store.table(TableKey{Class: l.Class, Design: design}, true)
	l.last.Store(t)
	return t
}

// Cost implements designer.CostModel.
func (l *Layer) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	t := l.table(d.Fingerprint())
	h := workload.ContentHash(q)
	if e, ok := l.Store.probe(t, h); ok {
		l.hits.Add(1)
		return e.result()
	}
	l.misses.Add(1)
	cost, err := l.Inner.Cost(ctx, q, d)
	switch {
	case err == nil:
		l.Store.put(t, h, entry{cost: cost})
	case errors.Is(err, designer.ErrUnsupported):
		l.Store.put(t, h, entry{unsupported: true})
	}
	return cost, err
}

// PrepareVector implements designer.VectorCoster when Inner does (it returns
// nil otherwise): the layer's kernel answers each entry from Store or from
// Inner's kernel, with Cost's semantics. Per 64-entry block it resolves the
// design's table once, probes and stores under one lock each, and adds the
// block's hits and misses to the counters once, so workers filling one
// design do not contend entry by entry. One difference from Cost, in the
// counts only: two queries of equal content in one block both miss and
// both reach Inner, where Cost, one entry at a time, would answer the
// second from the first's store.
func (l *Layer) PrepareVector(queries []*workload.Query) designer.VectorKernel {
	vc, ok := l.Inner.(designer.VectorCoster)
	if !ok {
		return nil
	}
	inner := vc.PrepareVector(queries)
	if inner == nil {
		return nil
	}
	k := &layerKernel{l: l, inner: inner, hashes: make([]uint64, len(queries))}
	for i, q := range queries {
		k.hashes[i] = workload.ContentHash(q)
	}
	return k
}

// layerKernel is a Layer's designer.VectorKernel.
type layerKernel struct {
	l      *Layer
	inner  designer.VectorKernel
	hashes []uint64 // by query index
	design uint64   // the bound design's fingerprint
}

// layerBlock is one block's scratch: the block's hashes and probed
// entries, the misses handed to the inner kernel, and the entries to store.
type layerBlock struct {
	hs    [64]uint64
	es    [64]entry
	found [64]bool
	pos   [64]int32 // a miss's position in the block
	xs    [64]int32
	cost  [64]float64
	errs  [64]error
	puts  [64]uint64
	vals  [64]entry
}

var layerBlocks = sync.Pool{New: func() any { return new(layerBlock) }}

// Bind implements designer.VectorKernel.
func (k *layerKernel) Bind(d *designer.Design) {
	k.design = d.Fingerprint()
	k.inner.Bind(d)
}

// Fill implements designer.VectorKernel.
func (k *layerKernel) Fill(xs []int32, cost []float64, errs []error) {
	b := layerBlocks.Get().(*layerBlock)
	for lo := 0; lo < len(xs); lo += 64 {
		hi := min(lo+64, len(xs))
		k.fill(b, xs[lo:hi], cost[lo:hi], errs[lo:hi])
	}
	layerBlocks.Put(b)
}

// fill is Fill over at most 64 entries: Cost's semantics, entry by entry,
// with one probe of Store and one store into it.
func (k *layerKernel) fill(b *layerBlock, xs []int32, cost []float64, errs []error) {
	l, n := k.l, len(xs)
	t := l.table(k.design)
	hs, found := b.hs[:n], b.found[:n]
	for i, x := range xs {
		hs[i] = k.hashes[x]
	}
	hits := l.Store.probeBlock(t, hs, b.es[:n], found)
	if hits > 0 {
		l.hits.Add(uint64(hits))
	}
	if hits < n {
		l.misses.Add(uint64(n - hits))
	}
	misses := 0
	for i, x := range xs {
		if found[i] {
			cost[i], errs[i] = b.es[i].result()
			continue
		}
		b.pos[misses], b.xs[misses] = int32(i), x
		misses++
	}
	if misses == 0 {
		return
	}
	k.inner.Fill(b.xs[:misses], b.cost[:misses], b.errs[:misses])
	puts := 0
	for j, i := range b.pos[:misses] {
		c, err := b.cost[j], b.errs[j]
		b.errs[j] = nil
		cost[i], errs[i] = c, err
		switch {
		case err == nil:
			b.puts[puts], b.vals[puts] = hs[i], entry{cost: c}
		case errors.Is(err, designer.ErrUnsupported):
			b.puts[puts], b.vals[puts] = hs[i], entry{unsupported: true}
		default:
			continue
		}
		puts++
	}
	l.Store.putBlock(t, b.puts[:puts], b.vals[:puts])
}
