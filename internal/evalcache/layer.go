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

// PrepareVector implements designer.VectorCoster when Inner does (it returns
// nil otherwise): the layer's kernel answers each entry from Read or from
// Inner's kernel, with Cost's semantics. Per 64-entry block it resolves the
// design's tables once, probes Read and stores into Write under one lock
// each, and adds the block's hits and misses to the counters once, so
// workers filling one design do not contend entry by entry. One difference
// from Cost, in the counts only: with Read == Write, two queries of equal
// content in one block both miss and both reach Inner, where Cost, one
// entry at a time, would answer the second from the first's store.
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
// with one probe of Read and one store into Write.
func (k *layerKernel) fill(b *layerBlock, xs []int32, cost []float64, errs []error) {
	l, n := k.l, len(xs)
	t := l.tables(k.design)
	hs, found := b.hs[:n], b.found[:n]
	for i, x := range xs {
		hs[i] = k.hashes[x]
	}
	hits := 0
	if l.Read != nil {
		hits = l.Read.probeBlock(t.read, hs, b.es[:n], found)
	} else {
		clear(found)
	}
	if hits > 0 {
		l.hits.Add(uint64(hits))
	}
	if hits < n {
		l.misses.Add(uint64(n - hits))
	}
	puts, misses := 0, 0
	for i, x := range xs {
		if !found[i] {
			b.pos[misses], b.xs[misses] = int32(i), x
			misses++
			continue
		}
		e := b.es[i]
		if e.unsupported {
			cost[i], errs[i] = 0, designer.ErrUnsupported
		} else {
			cost[i], errs[i] = e.cost, nil
		}
		if l.Write != l.Read {
			b.puts[puts], b.vals[puts] = hs[i], e
			puts++
		}
	}
	if misses > 0 {
		k.inner.Fill(b.xs[:misses], b.cost[:misses], b.errs[:misses])
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
	}
	l.Write.putBlock(t.write, b.puts[:puts], b.vals[:puts])
}
