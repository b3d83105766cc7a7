package designer

import "cliffguard/internal/workload"

// AnchorIndex groups query indices by anchor table (Spec.Table), ascending
// within each anchor, so a kernel checks a structure only against the
// queries on the structure's own anchor. Queries are added one at a time,
// so an index can grow with the queries a run shows it. Its slices are
// reused across Resets: a kernel that keeps one allocates nothing once warm.
type AnchorIndex struct {
	names []string  // distinct anchors, in first-appearance order
	lists [][]int32 // lists[a]: anchor a's query indices, ascending
	slots []int32   // per query, its anchor's index into names; -1: skipped
}

// Reset empties the index, keeping its memory.
func (x *AnchorIndex) Reset() {
	x.names, x.slots = x.names[:0], x.slots[:0]
	for a := range x.lists {
		x.lists[a] = x.lists[a][:0]
	}
	x.lists = x.lists[:0]
}

// Add indexes the next query, index Len(), under its anchor and returns the
// anchor's slot. A nil query, a query without a Spec, or skip true takes
// the index but no anchor: its slot is -1.
func (x *AnchorIndex) Add(q *workload.Query, skip bool) int32 {
	a := int32(-1)
	if q != nil && q.Spec != nil && !skip {
		if a = int32(x.SlotOf(q.Spec.Table)); a < 0 {
			a = int32(len(x.names))
			x.names = append(x.names, q.Spec.Table)
			if len(x.lists) < cap(x.lists) {
				x.lists = x.lists[:a+1]
			} else {
				x.lists = append(x.lists, nil)
			}
		}
		x.lists[a] = append(x.lists[a], int32(len(x.slots)))
	}
	x.slots = append(x.slots, a)
	return a
}

// Len returns the number of queries added since the last Reset.
func (x *AnchorIndex) Len() int { return len(x.slots) }

// Slot returns query qi's anchor slot, or -1 when it was skipped.
func (x *AnchorIndex) Slot(qi int) int32 { return x.slots[qi] }

// Anchors returns the number of distinct anchors: slots are [0, Anchors()).
func (x *AnchorIndex) Anchors() int { return len(x.names) }

// Queries returns the indices of the indexed queries on anchor, ascending.
// The slice is valid until the next Add or Reset.
func (x *AnchorIndex) Queries(anchor string) []int32 {
	a := x.SlotOf(anchor)
	if a < 0 {
		return nil
	}
	return x.lists[a]
}

// SlotOf returns anchor's slot, or -1 when no query on it was indexed. A
// workload touches a handful of tables, so a linear scan beats a map.
func (x *AnchorIndex) SlotOf(anchor string) int {
	for a, name := range x.names {
		if name == anchor {
			return a
		}
	}
	return -1
}
