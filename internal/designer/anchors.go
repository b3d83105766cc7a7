package designer

import "cliffguard/internal/workload"

// AnchorIndex groups query indices by anchor table (Spec.Table), ascending
// within each anchor, so a PairKernel checks a structure only against the
// queries on the structure's own anchor. Its slices are reused across
// Resets: a kernel that keeps one allocates nothing once warm.
type AnchorIndex struct {
	names  []string // distinct anchors, in first-appearance order
	slots  []int32  // per query, its anchor's index into names; -1: skipped
	starts []int    // order[starts[a]:starts[a+1]] are anchor a's queries
	order  []int32
}

// Reset indexes queries, skipping nil queries, queries without a Spec and
// those whose skip entry is true (skip may be nil).
func (x *AnchorIndex) Reset(queries []*workload.Query, skip []bool) {
	x.names, x.slots = x.names[:0], x.slots[:0]
	n := 0
	for qi, q := range queries {
		a := int32(-1)
		if q != nil && q.Spec != nil && (skip == nil || !skip[qi]) {
			if a = int32(x.slot(q.Spec.Table)); a < 0 {
				a = int32(len(x.names))
				x.names = append(x.names, q.Spec.Table)
			}
			n++
		}
		x.slots = append(x.slots, a)
	}
	// Counting sort: starts[a+1] first counts anchor a's queries, the prefix
	// sum turns the counts into offsets, and the fill advances starts[a]
	// until it reaches anchor a+1's offset; shifting back restores it.
	x.starts = append(x.starts[:0], make([]int, len(x.names)+1)...)
	for _, a := range x.slots {
		if a >= 0 {
			x.starts[a+1]++
		}
	}
	for a := 1; a < len(x.starts); a++ {
		x.starts[a] += x.starts[a-1]
	}
	x.order = append(x.order[:0], make([]int32, n)...)
	for qi, a := range x.slots {
		if a >= 0 {
			x.order[x.starts[a]] = int32(qi)
			x.starts[a]++
		}
	}
	copy(x.starts[1:], x.starts[:len(x.names)])
	x.starts[0] = 0
}

// Queries returns the indices of the indexed queries on anchor, ascending.
// The slice is valid until the next Reset.
func (x *AnchorIndex) Queries(anchor string) []int32 {
	a := x.slot(anchor)
	if a < 0 {
		return nil
	}
	return x.order[x.starts[a]:x.starts[a+1]]
}

// slot returns anchor's index into names, or -1. A workload touches a
// handful of tables, so a linear scan beats a map.
func (x *AnchorIndex) slot(anchor string) int {
	for a, name := range x.names {
		if name == anchor {
			return a
		}
	}
	return -1
}
