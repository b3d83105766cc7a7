// Package workload models SQL workloads the way CliffGuard sees them: each
// query is reduced to the sets of columns appearing in its SELECT, WHERE,
// GROUP BY and ORDER BY clauses (the paper's 4-tuple representation,
// Section 5), plus enough structural detail (predicates, aggregates) for the
// engine simulators to cost and execute it. Workloads are weighted multisets
// of queries, split into time windows for the window-by-window redesign
// experiments of Section 6.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"time"
)

// CmpOp is a comparison operator in a WHERE predicate.
type CmpOp int

const (
	// Eq is equality (col = v).
	Eq CmpOp = iota
	// Lt is strictly-less (col < v).
	Lt
	// Le is less-or-equal (col <= v).
	Le
	// Gt is strictly-greater (col > v).
	Gt
	// Ge is greater-or-equal (col >= v).
	Ge
	// Between is a closed range (col BETWEEN lo AND hi).
	Between
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "BETWEEN"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Pred is one conjunct of a query's WHERE clause. Lo/Hi carry the literal
// bounds as int64-comparable values (the engines store int64 and
// dictionary-coded strings; floats are compared by their int64 bucketing).
// Sel is the predicate's selectivity estimate in (0, 1]; the engines fall
// back to it when literal bounds are absent.
type Pred struct {
	Col int
	Op  CmpOp
	Lo  int64
	Hi  int64
	Sel float64
}

// AggFn is an aggregate function in the SELECT list.
type AggFn int

const (
	// Count is COUNT(*) or COUNT(col).
	Count AggFn = iota
	// Sum is SUM(col).
	Sum
	// Avg is AVG(col).
	Avg
	// Min is MIN(col).
	Min
	// Max is MAX(col).
	Max
)

// String returns the SQL spelling of the aggregate.
func (f AggFn) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggFn(%d)", int(f))
	}
}

// Agg is one aggregate expression. Col is -1 for COUNT(*).
type Agg struct {
	Fn  AggFn
	Col int
}

// OrderCol is one ORDER BY key.
type OrderCol struct {
	Col  int
	Desc bool
}

// Spec is the execution-relevant structure of a query against a single
// anchor table: which columns are projected, how rows are filtered, grouped
// and ordered. The engine simulators cost and execute Specs.
type Spec struct {
	Table      string
	SelectCols []int // bare projected columns (non-aggregate)
	Aggs       []Agg
	Preds      []Pred
	GroupBy    []int
	OrderBy    []OrderCol
	Limit      int // 0 means no limit
}

// Query is one workload query: its clause column sets, timestamp, and Spec.
type Query struct {
	ID        int64
	Timestamp time.Time
	SQL       string // original text, if the query came from a parser/renderer

	// Per-clause column sets: the paper's 4-tuple representation.
	Select  ColSet
	Where   ColSet
	GroupBy ColSet
	OrderBy ColSet

	Spec *Spec

	// hash is ContentHash, computed once by FromSpec; 0 for a query built
	// as a literal, whose hash ContentHash computes on every call.
	hash uint64
}

// FromSpec builds a Query whose clause sets are derived from the Spec, and
// stores its ContentHash. The returned Query and its Spec must not be
// mutated afterwards (ID, Timestamp and SQL excepted: the hash ignores them).
func FromSpec(id int64, ts time.Time, spec *Spec) *Query {
	q := &Query{ID: id, Timestamp: ts, Spec: spec}
	q.fillSets()
	q.hash = computeHash(q)
	return q
}

// Columns returns the union of all clause column sets (the paper's
// "union of all the columns that appear in it" representation).
func (q *Query) Columns() ColSet {
	n := max(len(q.Select.words), len(q.Where.words), len(q.GroupBy.words), len(q.OrderBy.words))
	out := make([]uint64, n)
	for i := range out {
		out[i] = wordAt(q.Select, i) | wordAt(q.Where, i) | wordAt(q.GroupBy, i) | wordAt(q.OrderBy, i)
	}
	return ColSet{words: out}
}

// AppendColumns appends the words of Columns() to arena and returns the
// union as a ColSet over the appended words, with the grown arena, so a
// kernel that keeps many queries' unions allocates one arena for all of
// them. The returned set must not be modified.
func (q *Query) AppendColumns(arena []uint64) (ColSet, []uint64) {
	n := max(len(q.Select.words), len(q.Where.words), len(q.GroupBy.words), len(q.OrderBy.words))
	start := len(arena)
	for i := 0; i < n; i++ {
		arena = append(arena, wordAt(q.Select, i)|wordAt(q.Where, i)|wordAt(q.GroupBy, i)|wordAt(q.OrderBy, i))
	}
	return ColSet{words: arena[start:len(arena):len(arena)]}, arena
}

// EachRef calls fn on every column of the clause-set union in ascending
// order, stopping early when fn returns false; it reports whether the walk
// ran to the end. For a query built by FromSpec the union is exactly
// Spec.ReferencedCols(), so the engines' what-if paths walk it instead of
// rebuilding that slice: the walk ORs the four bitsets word by word and
// allocates nothing.
func (q *Query) EachRef(fn func(c int) bool) bool {
	n := max(len(q.Select.words), len(q.Where.words), len(q.GroupBy.words), len(q.OrderBy.words))
	for wi := 0; wi < n; wi++ {
		w := wordAt(q.Select, wi) | wordAt(q.Where, wi) | wordAt(q.GroupBy, wi) | wordAt(q.OrderBy, wi)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*64 + b) {
				return false
			}
			w &^= 1 << uint(b)
		}
	}
	return true
}

// RefsIn reports whether cols holds every column the query references (the
// clause-set union), without building the union.
func (q *Query) RefsIn(cols ColSet) bool {
	return cols.Contains(q.Select) && cols.Contains(q.Where) &&
		cols.Contains(q.GroupBy) && cols.Contains(q.OrderBy)
}

// Clause identifies one of the four SQL clauses tracked per query.
type Clause int

const (
	// ClauseSelect is the SELECT list.
	ClauseSelect Clause = iota
	// ClauseWhere is the WHERE clause.
	ClauseWhere
	// ClauseGroupBy is the GROUP BY clause.
	ClauseGroupBy
	// ClauseOrderBy is the ORDER BY clause.
	ClauseOrderBy
	numClauses
)

// ClauseMask selects a subset of the four clauses when building workload
// vectors; the distance-function ablation (Figure 11) varies this mask.
type ClauseMask uint8

// Clause mask constants; combine with bitwise OR.
const (
	MaskSelect  ClauseMask = 1 << ClauseSelect
	MaskWhere   ClauseMask = 1 << ClauseWhere
	MaskGroupBy ClauseMask = 1 << ClauseGroupBy
	MaskOrderBy ClauseMask = 1 << ClauseOrderBy
	// MaskSWGO is the paper's default: union of all four clauses.
	MaskSWGO = MaskSelect | MaskWhere | MaskGroupBy | MaskOrderBy
)

// Has reports whether the mask includes clause c.
func (m ClauseMask) Has(c Clause) bool { return m&(1<<c) != 0 }

// String names the mask in the paper's style, e.g. "SWGO" or "W".
func (m ClauseMask) String() string {
	var b strings.Builder
	if m.Has(ClauseSelect) {
		b.WriteByte('S')
	}
	if m.Has(ClauseWhere) {
		b.WriteByte('W')
	}
	if m.Has(ClauseGroupBy) {
		b.WriteByte('G')
	}
	if m.Has(ClauseOrderBy) {
		b.WriteByte('O')
	}
	if b.Len() == 0 {
		return "(none)"
	}
	return b.String()
}

// ClauseSet returns the query's column set for one clause.
func (q *Query) ClauseSet(c Clause) ColSet {
	switch c {
	case ClauseSelect:
		return q.Select
	case ClauseWhere:
		return q.Where
	case ClauseGroupBy:
		return q.GroupBy
	case ClauseOrderBy:
		return q.OrderBy
	default:
		return ColSet{}
	}
}

// MaskedColumns returns the union of the clause sets selected by the mask.
func (q *Query) MaskedColumns(m ClauseMask) ColSet {
	s, _ := q.appendMasked(nil, m)
	return s
}

// maskedWords is the word count of MaskedColumns(m): the longest masked
// clause set's.
func (q *Query) maskedWords(m ClauseMask) int {
	n := 0
	for c := ClauseSelect; c < numClauses; c++ {
		if m.Has(c) {
			n = max(n, len(q.ClauseSet(c).words))
		}
	}
	return n
}

// appendMasked appends the words of MaskedColumns(m) to arena and returns
// the union as a ColSet over the appended words, with the grown arena.
func (q *Query) appendMasked(arena []uint64, m ClauseMask) (ColSet, []uint64) {
	start := len(arena)
	arena = append(arena, make([]uint64, q.maskedWords(m))...)
	out := arena[start:len(arena):len(arena)]
	for c := ClauseSelect; c < numClauses; c++ {
		if m.Has(c) {
			for i, w := range q.ClauseSet(c).words {
				out[i] |= w
			}
		}
	}
	return ColSet{words: out}, arena
}

// TemplateKey returns the canonical template identity of the query under the
// given clause mask: queries with identical masked column sets share a
// template (the paper's "templates", Section 6.2).
func (q *Query) TemplateKey(m ClauseMask) string {
	var buf [64]byte
	return string(q.AppendTemplateKey(buf[:0], m))
}

// AppendTemplateKey appends TemplateKey(m) to b and returns the extended
// buffer. It ORs the masked clause sets word by word instead of building
// their union, so with a reused buffer it allocates nothing.
func (q *Query) AppendTemplateKey(b []byte, m ClauseMask) []byte {
	var sets [numClauses]ColSet
	n, words := 0, 0
	for c := ClauseSelect; c < numClauses; c++ {
		if m.Has(c) {
			sets[n] = q.ClauseSet(c)
			words = max(words, len(sets[n].words))
			n++
		}
	}
	return appendWordsKey(b, words, func(i int) uint64 {
		var w uint64
		for _, s := range sets[:n] {
			w |= wordAt(s, i)
		}
		return w
	})
}

// SeparateKey returns the template identity under the 4-tuple representation
// (delta_separate, Section 5): clause sets are kept distinct.
func (q *Query) SeparateKey() string {
	return q.Select.Key() + "|" + q.Where.Key() + "|" + q.GroupBy.Key() + "|" + q.OrderBy.Key()
}

// FoldKey returns the full structural identity of the query: two queries with
// equal FoldKeys are indistinguishable to every downstream consumer — same
// template under any clause mask, same SeparateKey, and same cost under any
// engine model (the Spec carries all literals and selectivities). The
// streaming ingestion path (internal/ingest) folds duplicate log lines into
// one weighted item keyed by FoldKey; anything weaker (e.g. TemplateKey,
// which drops predicates and literals) would merge queries with different
// costs and break the compressed-vs-naive equivalence.
//
// Queries without a Spec fall back to SeparateKey prefixed so the two key
// spaces cannot collide. Timestamps and IDs are deliberately excluded: folding
// across them is the point.
func (q *Query) FoldKey() string { return string(q.AppendFoldKey(nil)) }

// AppendFoldKey appends the query's FoldKey to b and returns the extended
// buffer, so a caller probing a map can reuse one buffer across queries.
func (q *Query) AppendFoldKey(b []byte) []byte {
	if q.Spec == nil {
		b = append(b, "nospec|"...)
		return append(b, q.SeparateKey()...)
	}
	s := q.Spec
	b = append(b, s.Table...)
	b = append(b, "|s"...)
	for _, c := range s.SelectCols {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	b = append(b, "|a"...)
	for _, a := range s.Aggs {
		b = strconv.AppendInt(b, int64(a.Fn), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(a.Col), 10)
		b = append(b, ',')
	}
	b = append(b, "|p"...)
	for _, p := range s.Preds {
		b = strconv.AppendInt(b, int64(p.Col), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.Op), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, p.Lo, 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, p.Hi, 10)
		b = append(b, ':')
		// Selectivity is keyed by its exact bit pattern: two predicates fold
		// only if their float64 Sel values are identical.
		b = strconv.AppendUint(b, math.Float64bits(p.Sel), 16)
		b = append(b, ',')
	}
	b = append(b, "|g"...)
	for _, c := range s.GroupBy {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	b = append(b, "|o"...)
	for _, o := range s.OrderBy {
		b = strconv.AppendInt(b, int64(o.Col), 10)
		if o.Desc {
			b = append(b, 'd')
		}
		b = append(b, ',')
	}
	b = append(b, "|l"...)
	return strconv.AppendInt(b, int64(s.Limit), 10)
}

// String renders a one-line summary of the query.
func (q *Query) String() string {
	table := ""
	if q.Spec != nil {
		table = q.Spec.Table
	}
	return fmt.Sprintf("Q%d[%s] S%s W%s G%s O%s", q.ID, table,
		q.Select, q.Where, q.GroupBy, q.OrderBy)
}

// SortPredsBySelectivity returns the spec's predicates ordered most-selective
// first (ascending Sel). Designers use this to pick sort-key prefixes.
func (s *Spec) SortPredsBySelectivity() []Pred {
	out := make([]Pred, len(s.Preds))
	copy(out, s.Preds)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Sel < out[j].Sel })
	return out
}

// ReferencedCols returns every column the spec touches, ascending.
func (s *Spec) ReferencedCols() []int {
	var set ColSet
	for _, c := range s.SelectCols {
		set.Add(c)
	}
	for _, a := range s.Aggs {
		if a.Col >= 0 {
			set.Add(a.Col)
		}
	}
	for _, p := range s.Preds {
		set.Add(p.Col)
	}
	for _, c := range s.GroupBy {
		set.Add(c)
	}
	for _, o := range s.OrderBy {
		set.Add(o.Col)
	}
	return set.IDs()
}
