package workload

import "time"

// Draft is a query before it is built: FromSpec's arguments, with the Spec
// held by value so that a caller can stage many drafts in reused memory.
type Draft struct {
	ID        int64
	Timestamp time.Time
	Spec      Spec
}

// FromDrafts builds one query per draft, in order, each equal to
// FromSpec(d.ID, d.Timestamp, s) for a copy s of d.Spec: the same Spec
// values, clause sets and ContentHash. The batch's queries, Specs, Spec
// slices and clause-set words are carved from one array of each kind sized
// for the batch, so a batch costs a fixed handful of allocations whatever
// its length, and nothing in it aliases ds. A Spec slice that is nil in its
// draft is nil in the copy, and an empty one that is not nil stays empty and
// not nil, so the copy deep-equals the draft's Spec.
//
// The queries are immutable, as FromSpec's are. They share their backing
// arrays, so the arrays stay live while any query of the batch does.
func FromDrafts(ds []Draft) []*Query {
	// A scratch query filled from each draft sizes its clause sets (a set
	// filled by Add has exactly the words its largest column needs), and is
	// filled again to copy them out.
	var nInts, nAggs, nPreds, nOrders, nWords int
	var buf [numClauses][4]uint64
	scratch := Query{Select: ColSet{words: buf[0][:0]}, Where: ColSet{words: buf[1][:0]},
		GroupBy: ColSet{words: buf[2][:0]}, OrderBy: ColSet{words: buf[3][:0]}}
	for i := range ds {
		s := &ds[i].Spec
		nInts += len(s.SelectCols) + len(s.GroupBy)
		nAggs += len(s.Aggs)
		nPreds += len(s.Preds)
		nOrders += len(s.OrderBy)
		scratch.Refill(s)
		nWords += len(scratch.Select.words) + len(scratch.Where.words) + len(scratch.GroupBy.words) + len(scratch.OrderBy.words)
	}
	out := make([]*Query, len(ds))
	qs := make([]Query, len(ds))
	specs := make([]Spec, len(ds))
	ints := make([]int, 0, nInts)
	aggs := make([]Agg, 0, nAggs)
	preds := make([]Pred, 0, nPreds)
	orders := make([]OrderCol, 0, nOrders)
	words := make([]uint64, nWords)
	for i := range ds {
		d, s := &ds[i], &specs[i]
		s.Table, s.Limit = d.Spec.Table, d.Spec.Limit
		s.SelectCols, ints = carve(ints, d.Spec.SelectCols)
		s.Aggs, aggs = carve(aggs, d.Spec.Aggs)
		s.Preds, preds = carve(preds, d.Spec.Preds)
		s.GroupBy, ints = carve(ints, d.Spec.GroupBy)
		s.OrderBy, orders = carve(orders, d.Spec.OrderBy)

		q := &qs[i]
		q.ID, q.Timestamp, q.Spec = d.ID, d.Timestamp, s
		scratch.Refill(s)
		q.Select, words = carveSet(words, scratch.Select)
		q.Where, words = carveSet(words, scratch.Where)
		q.GroupBy, words = carveSet(words, scratch.GroupBy)
		q.OrderBy, words = carveSet(words, scratch.OrderBy)
		q.hash = computeHash(q)
		out[i] = q
	}
	return out
}

// carve appends src to arena, whose capacity the caller sized so that the
// append never reallocates, and returns the appended part (nil when src is
// nil) capped at its length.
func carve[T any](arena, src []T) ([]T, []T) {
	if src == nil {
		return nil, arena
	}
	start := len(arena)
	arena = append(arena, src...)
	return arena[start:len(arena):len(arena)], arena
}

// carveSet returns a copy of set over the first words of arena (no words
// for an empty set) and the rest of the arena.
func carveSet(arena []uint64, set ColSet) (ColSet, []uint64) {
	n := len(set.words)
	if n == 0 {
		return ColSet{}, arena
	}
	copy(arena, set.words)
	return ColSet{words: arena[:n:n]}, arena[n:]
}

// fillSets adds the Spec's columns to the query's clause sets, exactly as
// FromSpec does.
func (q *Query) fillSets() {
	spec := q.Spec
	for _, c := range spec.SelectCols {
		q.Select.Add(c)
	}
	for _, a := range spec.Aggs {
		if a.Col >= 0 {
			q.Select.Add(a.Col)
		}
	}
	for _, p := range spec.Preds {
		q.Where.Add(p.Col)
	}
	for _, c := range spec.GroupBy {
		q.GroupBy.Add(c)
	}
	for _, o := range spec.OrderBy {
		q.OrderBy.Add(o.Col)
	}
}

// Refill makes q a scratch query over spec: q.Spec is spec, its clause sets
// are refilled from spec as FromSpec fills them, reusing q's own set words,
// and ID, Timestamp and SQL are zero. So a query rebuilt many times
// allocates only to grow, and a caller can take the TemplateKey of a spec it
// may never build. Its ContentHash is computed on every call, as a literal
// query's is. q must not share its set words with a query in use elsewhere.
func (q *Query) Refill(spec *Spec) {
	q.ID, q.Timestamp, q.SQL, q.Spec, q.hash = 0, time.Time{}, "", spec, 0
	q.Select.Clear()
	q.Where.Clear()
	q.GroupBy.Clear()
	q.OrderBy.Clear()
	q.fillSets()
}
