package workload

import (
	"math"
	"math/bits"
)

// ContentHash returns a canonical 64-bit identity of everything about the
// query that a deterministic what-if cost model can observe: the anchor
// table, the four clause column sets, and the full execution Spec
// (projected columns, aggregates, predicates with operator/bounds/selectivity,
// grouping, ordering, limit). Two queries with equal content hash identically
// even when they were parsed by different sessions and carry different IDs or
// timestamps — which is exactly what lets the serving layer share memoized
// unit costs across tenants running the same workload.
//
// The hash deliberately excludes ID, Timestamp and the original SQL text:
// none of them reach a cost model, and including them would defeat
// cross-tenant sharing. It is process-local and never persisted, so its
// values may change between versions; only the identity it encodes is
// fixed.
//
// FromSpec computes the hash once and stores it on the Query, so for every
// query built there (the parser, the mutator, the generators) ContentHash is
// one field read. A Query must therefore not be mutated after FromSpec
// returns it: changing its clause sets or Spec would leave the stored hash
// stale. A query built as a literal carries no stored hash, and ContentHash
// computes it on every call.
func ContentHash(q *Query) uint64 {
	if q != nil && q.hash != 0 {
		return q.hash
	}
	return computeHash(q)
}

// computeHash is ContentHash without the stored value: a word-at-a-time walk
// over the query's content, with every variable-length section prefixed by
// its length so that adjacent sections can never collide by concatenation.
func computeHash(q *Query) uint64 {
	var h hasher
	if q == nil {
		return h.sum()
	}
	h.colSet(q.Select)
	h.colSet(q.Where)
	h.colSet(q.GroupBy)
	h.colSet(q.OrderBy)
	if q.Spec == nil {
		return h.sum()
	}
	s := q.Spec
	h.str(s.Table)
	h.ints(s.SelectCols)
	h.word(uint64(len(s.Aggs)))
	for _, a := range s.Aggs {
		h.word(uint64(a.Fn))
		h.word(uint64(a.Col))
	}
	h.word(uint64(len(s.Preds)))
	for _, p := range s.Preds {
		h.word(uint64(p.Col))
		h.word(uint64(p.Op))
		h.word(uint64(p.Lo))
		h.word(uint64(p.Hi))
		h.word(math.Float64bits(p.Sel))
	}
	h.ints(s.GroupBy)
	h.word(uint64(len(s.OrderBy)))
	for _, o := range s.OrderBy {
		h.word(uint64(o.Col))
		if o.Desc {
			h.word(1)
		} else {
			h.word(0)
		}
	}
	h.word(uint64(s.Limit))
	return h.sum()
}

// hasher folds 64-bit words into its state with a full 64x64->128-bit
// multiply (the wyhash mixing step), so every input bit reaches every state
// bit within a word or two.
type hasher struct{ h uint64 }

const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
)

func (x *hasher) word(v uint64) {
	hi, lo := bits.Mul64(x.h^hashK0, v^hashK1)
	x.h = hi ^ lo
}

// str hashes the length, then the bytes eight at a time (little-endian, the
// last word zero-padded).
func (x *hasher) str(s string) {
	x.word(uint64(len(s)))
	for len(s) >= 8 {
		x.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		x.word(w)
	}
}

func (x *hasher) ints(v []int) {
	x.word(uint64(len(v)))
	for _, c := range v {
		x.word(uint64(c))
	}
}

// colSet hashes the set's words with trailing zero words trimmed, so equal
// sets hash alike whatever their backing length.
func (x *hasher) colSet(s ColSet) {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	x.word(uint64(n))
	for _, w := range s.words[:n] {
		x.word(w)
	}
}

// sum finishes the hash with a final avalanche of the state.
func (x *hasher) sum() uint64 {
	hi, lo := bits.Mul64(x.h^hashK1, hashK0)
	return hi ^ lo
}
