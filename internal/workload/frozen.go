package workload

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FrozenVector is an immutable, interned snapshot of a workload's normalized
// template-frequency vector under one clause mask: the same data Vector and
// VectorWithSets return as maps, flattened into key-sorted parallel slices.
// Freezing is what makes the distance metrics cheap against a repeated
// operand (the sampler evaluates delta(W0, ·) hundreds of times per
// Gamma-neighborhood): the map construction and key sort happen once per
// workload instead of once per distance call, and the vector's quadratic
// self-term is memoized for the template-disjoint fast path.
//
// A FrozenVector must never be mutated; Workload.Frozen hands the same
// instance to concurrent callers.
type FrozenVector struct {
	// Keys holds the template keys in ascending (sort.Strings) order — the
	// exact order the distance metrics visit map keys in, so a frozen-vector
	// distance is bit-identical to the historical map-based one.
	Keys []string
	// Freqs holds the normalized frequency of each template, aligned with
	// Keys. Values are accumulated in item order, matching Vector exactly.
	Freqs []float64
	// Sets holds the representative masked column set per template.
	Sets []ColSet

	selfOnce sync.Once
	self     float64
}

// Len returns the number of distinct templates.
func (fv *FrozenVector) Len() int { return len(fv.Keys) }

// HasKey reports whether the template key is present, by binary search over
// the sorted key slice. The sampler's fresh-template filter uses this instead
// of building a TemplateSet map per draw.
func (fv *FrozenVector) HasKey(k string) bool {
	i := sort.SearchStrings(fv.Keys, k)
	return i < len(fv.Keys) && fv.Keys[i] == k
}

// HasKeyBytes is HasKey for a key held in a byte buffer; it allocates
// nothing.
func (fv *FrozenVector) HasKeyBytes(k []byte) bool {
	lo, hi := 0, len(fv.Keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if fv.Keys[m] < string(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(fv.Keys) && fv.Keys[lo] == string(k)
}

// SelfQuad returns the vector's unnormalized quadratic self-term
//
//	sum_{i<j} 2 * f_i * f_j * Hamming(set_i, set_j)
//
// computed once and memoized. For two template-disjoint workloads the
// frequency-difference vector is the concatenation of their frequency
// vectors, so delta_euclidean decomposes into the two self-terms plus a
// cross-term — and the self-term of a repeated operand (the sampler's W0)
// amortizes to zero cost.
func (fv *FrozenVector) SelfQuad() float64 {
	fv.selfOnce.Do(func() {
		var total float64
		for i := range fv.Freqs {
			for j := i + 1; j < len(fv.Freqs); j++ {
				total += 2 * fv.Freqs[i] * fv.Freqs[j] * float64(fv.Sets[i].Hamming(fv.Sets[j]))
			}
		}
		fv.self = total
	})
	return fv.self
}

// FrozenSeparateVector is the FrozenVector analogue for the 4-tuple
// (delta_separate) representation: per-clause column sets are kept distinct.
type FrozenSeparateVector struct {
	// Keys holds the 4-tuple template keys in ascending order.
	Keys []string
	// Freqs holds the normalized frequency of each template, aligned with Keys.
	Freqs []float64
	// Sets holds the per-clause column sets of each template.
	Sets [][numClauses]ColSet

	selfOnce sync.Once
	self     float64
}

// Len returns the number of distinct templates.
func (fv *FrozenSeparateVector) Len() int { return len(fv.Keys) }

// SelfQuad returns the unnormalized quadratic self-term under the 4-tuple
// Hamming distance (summed across the four clause sets), memoized.
func (fv *FrozenSeparateVector) SelfQuad() float64 {
	fv.selfOnce.Do(func() {
		var total float64
		for i := range fv.Freqs {
			for j := i + 1; j < len(fv.Freqs); j++ {
				ham := 0
				for c := 0; c < int(numClauses); c++ {
					ham += fv.Sets[i][c].Hamming(fv.Sets[j][c])
				}
				total += 2 * fv.Freqs[i] * fv.Freqs[j] * float64(ham)
			}
		}
		fv.self = total
	})
	return fv.self
}

// frozenSet is one immutable generation of a workload's frozen-vector cache:
// one FrozenVector per clause mask seen so far, plus the separate-variant
// vector. Updates copy the whole set (copy-on-write) and publish it with a
// CAS, so readers never lock and Add can invalidate with a single nil store.
type frozenSet struct {
	byMask map[ClauseMask]*FrozenVector
	sep    *FrozenSeparateVector
}

// Frozen returns the workload's frozen frequency vector under the mask,
// computing and caching it on first use. The cache is invalidated by Add (and
// not shared by Clone), so a workload that is still being assembled stays
// correct; concurrent calls are safe and return equivalent vectors.
//
// Callers must treat the result as immutable.
func (w *Workload) Frozen(m ClauseMask) *FrozenVector {
	for {
		cur := w.frozen.Load()
		if cur != nil {
			if fv, ok := cur.byMask[m]; ok {
				return fv
			}
		}
		fv := w.buildFrozen(m)
		next := &frozenSet{byMask: map[ClauseMask]*FrozenVector{m: fv}}
		if cur != nil {
			for k, v := range cur.byMask {
				if k != m {
					next.byMask[k] = v
				}
			}
			next.sep = cur.sep
		}
		if w.frozen.CompareAndSwap(cur, next) {
			return fv
		}
		// Lost a publish race; retry so every caller converges on one
		// generation. A duplicate build is deterministic, so either
		// instance carries identical values.
	}
}

// FrozenSeparate returns the workload's frozen 4-tuple frequency vector,
// computing and caching it on first use (same contract as Frozen).
func (w *Workload) FrozenSeparate() *FrozenSeparateVector {
	for {
		cur := w.frozen.Load()
		if cur != nil && cur.sep != nil {
			return cur.sep
		}
		fv := w.buildFrozenSeparate()
		next := &frozenSet{byMask: map[ClauseMask]*FrozenVector{}, sep: fv}
		if cur != nil {
			for k, v := range cur.byMask {
				next.byMask[k] = v
			}
		}
		if w.frozen.CompareAndSwap(cur, next) {
			return fv
		}
	}
}

// invalidateFrozen drops every cached frozen vector; called on mutation.
func (w *Workload) invalidateFrozen() { w.frozen.Store(nil) }

// buildFrozen flattens VectorWithSets into key-sorted slices. Its
// arithmetic must stay VectorWithSets' (two-phase: raw weights summed per
// key in item order, divided once): frozen and map-based distances are
// asserted bit-identical. Instead of maps it writes every item's key into
// one buffer and stable-sorts the items by key, so each template's items
// stay in item order (its first item is its first occurrence, and its
// weights sum in item order), and a build makes a fixed handful of
// allocations, not two or more per item. The distinct keys are copied into
// one string of their own, so the vector does not keep every item's key.
func (w *Workload) buildFrozen(m ClauseMask) *FrozenVector {
	total := w.TotalWeight()
	fv := &FrozenVector{}
	if total <= 0 {
		return fv
	}
	n := len(w.Items)
	buf := make([]byte, 0, 24*n)
	ends := make([]int, n)
	for i, it := range w.Items {
		buf = it.Q.AppendTemplateKey(buf, m)
		ends[i] = len(buf)
	}
	key := func(i int32) []byte {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		return buf[start:ends[i]]
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })

	groups, words, keyBytes := 0, 0, 0
	for g, x := range order {
		if g == 0 || !bytes.Equal(key(x), key(order[g-1])) {
			groups++
			words += w.Items[x].Q.maskedWords(m)
			keyBytes += len(key(x))
		}
	}
	var keys strings.Builder
	keys.Grow(keyBytes)
	fv.Keys = make([]string, 0, groups)
	fv.Freqs = make([]float64, 0, groups)
	fv.Sets = make([]ColSet, 0, groups)
	arena := make([]uint64, 0, words)
	for g := 0; g < n; {
		first := order[g]
		k := key(first)
		var sum float64
		for ; g < n && bytes.Equal(key(order[g]), k); g++ {
			sum += w.Items[order[g]].Weight
		}
		var set ColSet
		set, arena = w.Items[first].Q.appendMasked(arena, m)
		// keys was grown to hold every distinct key, so each key is a
		// substring of its one array.
		start := keys.Len()
		keys.Write(k)
		fv.Keys = append(fv.Keys, keys.String()[start:])
		fv.Freqs = append(fv.Freqs, sum/total)
		fv.Sets = append(fv.Sets, set)
	}
	return fv
}

// buildFrozenSeparate flattens SeparateVector the same way.
func (w *Workload) buildFrozenSeparate() *FrozenSeparateVector {
	total := w.TotalWeight()
	fv := &FrozenSeparateVector{}
	if total <= 0 {
		return fv
	}
	freqs := make(map[string]float64, len(w.Items))
	sets := make(map[string][numClauses]ColSet, len(w.Items))
	for _, it := range w.Items {
		key := it.Q.SeparateKey()
		freqs[key] += it.Weight
		if _, ok := sets[key]; !ok {
			sets[key] = [numClauses]ColSet{
				it.Q.Select, it.Q.Where, it.Q.GroupBy, it.Q.OrderBy,
			}
		}
	}
	for k := range freqs {
		freqs[k] /= total
	}
	fv.Keys = make([]string, 0, len(freqs))
	for k := range freqs {
		fv.Keys = append(fv.Keys, k)
	}
	sort.Strings(fv.Keys)
	fv.Freqs = make([]float64, len(fv.Keys))
	fv.Sets = make([][numClauses]ColSet, len(fv.Keys))
	for i, k := range fv.Keys {
		fv.Freqs[i] = freqs[k]
		fv.Sets[i] = sets[k]
	}
	return fv
}

// frozenPtr is the cache field embedded in Workload. It lives here (not in
// workload.go) to keep the frozen machinery in one file; the type alias keeps
// the Workload struct declaration readable.
type frozenPtr = atomic.Pointer[frozenSet]
