package sample

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/distance"
	"cliffguard/internal/schema"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// r1Months returns the warehouse schema and the first months of the R1
// preset for seed, generated once per seed.
func r1Months(tb testing.TB, seed int64) (*schema.Schema, []*workload.Workload) {
	tb.Helper()
	r1Mu.Lock()
	defer r1Mu.Unlock()
	if r1Schema == nil {
		r1Schema = datagen.Warehouse(1)
	}
	if ms, ok := r1Cache[seed]; ok {
		return r1Schema, ms
	}
	cfg := wlgen.R1Config(r1Schema, seed)
	cfg.Months = 3
	cfg.DriftTargets = cfg.DriftTargets[:2]
	set, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	r1Cache[seed] = set.Months
	return r1Schema, set.Months
}

var (
	r1Mu     sync.Mutex
	r1Schema *schema.Schema
	r1Cache  = map[int64][]*workload.Workload{}
)

// sameMutants requires got to be want query by query: ID, timestamp,
// deep-equal Spec and ContentHash.
func sameMutants(got, want []*workload.Query) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d mutants, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || !g.Timestamp.Equal(w.Timestamp) {
			return fmt.Errorf("mutant %d: ID/time %d %v, reference %d %v", i, g.ID, g.Timestamp, w.ID, w.Timestamp)
		}
		if !reflect.DeepEqual(g.Spec, w.Spec) {
			return fmt.Errorf("mutant %d: Spec %#v, reference %#v", i, *g.Spec, *w.Spec)
		}
		if workload.ContentHash(g) != workload.ContentHash(w) {
			return fmt.Errorf("mutant %d: content hash differs from the reference's", i)
		}
		if g.TemplateKey(workload.MaskSWGO) != w.TemplateKey(workload.MaskSWGO) || g.SeparateKey() != w.SeparateKey() {
			return fmt.Errorf("mutant %d: clause sets differ from the reference's", i)
		}
	}
	return nil
}

// sameState requires two generators that started alike to be in the same
// state, by drawing one value from each.
func sameState(a, b *rand.Rand) error {
	if x, y := a.Int63(), b.Int63(); x != y {
		return fmt.Errorf("rng state differs from the reference's (%d vs %d)", x, y)
	}
	return nil
}

// diffMutator draws from m and from the reference mutator on w with
// generators seeded by seed, and requires the same mutants and the same rng
// state after every draw: k popularity-weighted draws one at a time, a
// batch of k, the batch filtered against known, and one uniform Mutate of
// each of w's first items.
func diffMutator(m *Mutator, w *workload.Workload, known *workload.FrozenVector, seed int64, k int) error {
	a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		if err := sameMutants(m.Candidates(a, w, 1, nil), m.refCandidates(b, w, 1)); err != nil {
			return fmt.Errorf("draw %d: %w", i, err)
		}
		if err := sameState(a, b); err != nil {
			return fmt.Errorf("draw %d: %w", i, err)
		}
	}
	if err := sameMutants(m.Candidates(a, w, k, nil), m.refCandidates(b, w, k)); err != nil {
		return fmt.Errorf("batch of %d: %w", k, err)
	}
	if err := sameState(a, b); err != nil {
		return fmt.Errorf("batch of %d: %w", k, err)
	}
	var fresh []*workload.Query
	for _, q := range m.refCandidates(b, w, k) {
		if !known.HasKey(q.TemplateKey(workload.MaskSWGO)) {
			fresh = append(fresh, q)
		}
	}
	if err := sameMutants(m.Candidates(a, w, k, known), fresh); err != nil {
		return fmt.Errorf("filtered batch of %d: %w", k, err)
	}
	if err := sameState(a, b); err != nil {
		return fmt.Errorf("filtered batch of %d: %w", k, err)
	}
	for i, it := range w.Items[:min(len(w.Items), k)] {
		got, want := m.Mutate(a, it.Q), m.refMutateWith(b, it.Q, nil)
		if err := sameMutants([]*workload.Query{got}, []*workload.Query{want}); err != nil {
			return fmt.Errorf("Mutate of item %d: %w", i, err)
		}
		if err := sameState(a, b); err != nil {
			return fmt.Errorf("Mutate of item %d: %w", i, err)
		}
	}
	return nil
}

// TestMutantsMatchReference diffs the scratch mutator against the reference
// mutator (reference_test.go) on the first R1 months at seeds 1 and 2, and
// on sampler-drawn neighbors of each month, whose mutants carry fractional
// weights into the popularity prior.
func TestMutantsMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		s, months := r1Months(t, seed)
		sampler := New(distance.NewEuclidean(s.NumColumns()), NewMutator(s))
		sampler.Parallelism = 1
		for mi, month := range months {
			ws := []*workload.Workload{month}
			nbrs, err := sampler.Neighborhood(rand.New(rand.NewSource(seed)), month, 0.002, 3)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, nbrs...)
			known := month.Frozen(workload.MaskSWGO)
			for wi, w := range ws {
				for _, flips := range []int{2, 0} {
					m := NewMutator(s)
					m.MaxFlips = flips
					if err := diffMutator(m, w, known, seed*100+int64(mi), 40); err != nil {
						t.Fatalf("seed %d month %d workload %d MaxFlips %d: %v", seed, mi, wi, flips, err)
					}
				}
			}
		}
	}
}

// FuzzMutantsMatchReference diffs the scratch mutator against the reference
// on fuzzed slices of the first three R1 months (seed 1) and of the three
// neighbors TestMutantsMatchReference samples from each (sliced from its
// end, where its mutants are), with fuzzed weights, generator seeds, draw
// counts and flip bounds. Month 0 has no query with more than 2 predicates;
// months 1 and 2 and month 0's second and third neighbors (in their last
// 14 items) do, and the seeds reach them.
func FuzzMutantsMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(200), uint8(12), uint8(2), uint8(0), uint8(0), false, 1.0)
	f.Add(int64(7), uint16(40), uint16(3), uint8(40), uint8(0), uint8(0), uint8(0), true, 0.25)
	f.Add(int64(-3), uint16(150), uint16(1), uint8(1), uint8(7), uint8(1), uint8(0), false, 3.5)
	f.Add(int64(5), uint16(20), uint16(60), uint8(24), uint8(2), uint8(0), uint8(1), true, 1.0)
	f.Add(int64(2), uint16(12), uint16(120), uint8(30), uint8(2), uint8(0), uint8(2), true, 2.0)
	f.Add(int64(11), uint16(0), uint16(200), uint8(16), uint8(3), uint8(1), uint8(0), false, 0.5)
	f.Add(int64(9), uint16(900), uint16(300), uint8(20), uint8(2), uint8(2), uint8(2), true, 1.0)
	s, months := r1Months(f, 1)
	sampler := New(distance.NewEuclidean(s.NumColumns()), NewMutator(s))
	sampler.Parallelism = 1
	nbrs := make([][]*workload.Workload, len(months))
	known := make([]*workload.FrozenVector, len(months))
	for mi, month := range months {
		var err error
		if nbrs[mi], err = sampler.Neighborhood(rand.New(rand.NewSource(1)), month, 0.002, 3); err != nil {
			f.Fatal(err)
		}
		known[mi] = month.Frozen(workload.MaskSWGO)
	}
	f.Fuzz(func(t *testing.T, seed int64, start, n uint16, k, flips, month, nbr uint8, neighbor bool, scale float64) {
		mi := int(month) % len(months)
		src := months[mi]
		if neighbor {
			src = nbrs[mi][int(nbr)%len(nbrs[mi])]
		}
		lo := int(start) % src.Len()
		if neighbor {
			// Count from the end, where the neighbor's mutants are.
			lo = src.Len() - 1 - lo
		}
		hi := min(src.Len(), lo+1+int(n))
		w := &workload.Workload{}
		for i, it := range src.Items[lo:hi] {
			weight := it.Weight
			if i%3 == 0 && scale > 0 && scale < 1e6 {
				weight *= scale
			}
			w.Add(it.Q, weight)
		}
		if w.Len() == 0 {
			return
		}
		m := NewMutator(s)
		m.MaxFlips = int(flips % 9)
		if err := diffMutator(m, w, known[mi], seed, 1+int(k%48)); err != nil {
			t.Fatal(err)
		}
	})
}
