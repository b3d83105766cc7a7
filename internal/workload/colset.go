package workload

import (
	"math/bits"
	"strconv"
	"strings"
)

// ColSet is a set of global column IDs, stored as a bitset. The zero value is
// the empty set. ColSet values are treated as immutable once shared; mutating
// methods have pointer receivers and the non-mutating operators return fresh
// sets.
type ColSet struct {
	words []uint64
}

// NewColSet returns the set containing the given column IDs.
func NewColSet(ids ...int) ColSet {
	var s ColSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func (s *ColSet) grow(word int) {
	if word >= len(s.words) {
		words := make([]uint64, word+1)
		copy(words, s.words)
		s.words = words
	}
}

// Add inserts a column ID. Negative IDs panic.
func (s *ColSet) Add(id int) {
	if id < 0 {
		panic("workload: negative column ID")
	}
	w := id / 64
	s.grow(w)
	s.words[w] |= 1 << uint(id%64)
}

// Remove deletes a column ID if present.
func (s *ColSet) Remove(id int) {
	if id < 0 {
		return
	}
	w := id / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(id%64)
	}
}

// Has reports whether the set contains id.
func (s ColSet) Has(id int) bool {
	if id < 0 {
		return false
	}
	w := id / 64
	return w < len(s.words) && s.words[w]&(1<<uint(id%64)) != 0
}

// wordAt returns word i of the bitset, 0 past its end.
func wordAt(s ColSet, i int) uint64 {
	if i < len(s.words) {
		return s.words[i]
	}
	return 0
}

// Len returns the number of columns in the set.
func (s ColSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no columns.
func (s ColSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union returns the set union of s and t.
func (s ColSet) Union(t ColSet) ColSet {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	out := make([]uint64, len(long))
	copy(out, long)
	for i, w := range short {
		out[i] |= w
	}
	return ColSet{words: out}
}

// Intersect returns the set intersection of s and t.
func (s ColSet) Intersect(t ColSet) ColSet {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = s.words[i] & t.words[i]
	}
	return ColSet{words: out}
}

// UnionLen returns the size of the union of s and t without building it.
func (s ColSet) UnionLen(t ColSet) int {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	n := 0
	for i, w := range short {
		n += bits.OnesCount64(long[i] | w)
	}
	for _, w := range long[len(short):] {
		n += bits.OnesCount64(w)
	}
	return n
}

// IntersectLen returns the size of the intersection of s and t without
// building it.
func (s ColSet) IntersectLen(t ColSet) int {
	n := 0
	for i := 0; i < len(s.words) && i < len(t.words); i++ {
		n += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return n
}

// Minus returns s with all members of t removed.
func (s ColSet) Minus(t ColSet) ColSet {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	for i := range out {
		if i < len(t.words) {
			out[i] &^= t.words[i]
		}
	}
	return ColSet{words: out}
}

// Contains reports whether every column of t is in s.
func (s ColSet) Contains(t ColSet) bool {
	for i, w := range t.words {
		if w == 0 {
			continue
		}
		if i >= len(s.words) || s.words[i]&w != w {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same columns.
func (s ColSet) Equal(t ColSet) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Hamming returns the number of columns present in exactly one of s and t.
// This is the paper's Hamming distance between the binary representations of
// two queries (Section 5).
func (s ColSet) Hamming(t ColSet) int {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	n := 0
	for i, w := range short {
		n += bits.OnesCount64(long[i] ^ w)
	}
	for _, w := range long[len(short):] {
		n += bits.OnesCount64(w)
	}
	return n
}

// IDs returns the member column IDs in ascending order.
func (s ColSet) IDs() []int {
	ids := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			ids = append(ids, wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return ids
}

// Clone returns an independent copy of s.
func (s ColSet) Clone() ColSet {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return ColSet{words: out}
}

// Key returns a canonical string identity for the set, suitable as a map key.
func (s ColSet) Key() string {
	var buf [64]byte
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends the set's Key to b and returns the extended buffer.
func (s ColSet) AppendKey(b []byte) []byte {
	return appendWordsKey(b, len(s.words), func(i int) uint64 { return s.words[i] })
}

// appendWordsKey appends the Key of the n-word bitset whose word i is
// word(i): the words in hex, comma-separated, with trailing zero words
// trimmed so logically equal sets share a key.
func appendWordsKey(b []byte, n int, word func(i int) uint64) []byte {
	for n > 0 && word(n-1) == 0 {
		n--
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, word(i), 16)
	}
	return b
}

// String renders the set as a sorted ID list, e.g. "{1,5,9}".
func (s ColSet) String() string {
	ids := s.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
