package designer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// greedyReference is Greedy as a full rescan: every round scores every
// untaken entry of idx that fits and takes the best, ties to the earliest
// position. Greedy must pick exactly what it picks.
func (t *PairTable) greedyReference(ctx context.Context, idx []int, taken []bool, cur []float64, used, budget int64) ([]int, error) {
	var picks []int
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestIdx := -1
		bestScore := 0.0
		for _, si := range idx {
			if taken[si] {
				continue
			}
			sz := t.Pool[si].SizeBytes()
			if used+sz > budget {
				continue
			}
			var gain float64
			costs := t.HelpCost[si]
			for k, qi := range t.Helps[si] {
				if c := costs[k]; c < cur[qi] {
					gain += t.Weights[qi] * (cur[qi] - c)
				}
			}
			if gain <= 0 {
				continue
			}
			score := gain / float64(max(sz, 1))
			if bestIdx < 0 || score > bestScore {
				bestIdx, bestScore = si, score
			}
		}
		if bestIdx < 0 {
			return picks, nil
		}
		taken[bestIdx] = true
		t.Lower(cur, bestIdx)
		used += t.Pool[bestIdx].SizeBytes()
		picks = append(picks, bestIdx)
	}
}

// GreedyReference and CheckGreedy give the external tests, which build the
// engines' tables, greedyReference and checkGreedy from a background
// context.
var GreedyReference = (*PairTable).greedyReference

func CheckGreedy(t *PairTable, idx []int, taken []bool, cur []float64, used, budget int64) error {
	return checkGreedy(t, background, idx, taken, cur, used, budget)
}

// checkGreedy runs Greedy and greedyReference from the same start, each on
// its own copy of taken and cur, and requires the same picks, the same
// error, cur equal bit for bit and the same taken. ctx is made once per
// run, so a context that cancels itself after some rounds does so at the
// same round in both.
func checkGreedy(t *PairTable, ctx func() context.Context, idx []int, taken []bool, cur []float64, used, budget int64) error {
	gotTaken, wantTaken := slices.Clone(taken), slices.Clone(taken)
	gotCur, wantCur := slices.Clone(cur), slices.Clone(cur)
	got, gotErr := t.Greedy(ctx(), idx, gotTaken, gotCur, used, budget)
	want, wantErr := t.greedyReference(ctx(), idx, wantTaken, wantCur, used, budget)
	switch {
	case gotErr != wantErr:
		return fmt.Errorf("Greedy returned error %v, the reference %v", gotErr, wantErr)
	case !slices.Equal(got, want):
		return fmt.Errorf("Greedy picked %v, the reference %v", got, want)
	case !slices.Equal(gotTaken, wantTaken):
		return fmt.Errorf("Greedy left taken %v, the reference %v", gotTaken, wantTaken)
	}
	for qi := range gotCur {
		if math.Float64bits(gotCur[qi]) != math.Float64bits(wantCur[qi]) {
			return fmt.Errorf("Greedy left cur[%d] = %v, the reference %v", qi, gotCur[qi], wantCur[qi])
		}
	}
	return nil
}

// roundsCtx is a context whose Err turns Canceled on its call number n+1:
// Greedy and the reference call Err once per round, so it cancels the
// search between round n-1 and round n.
type roundsCtx struct {
	context.Context
	n int
}

func (c *roundsCtx) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// background makes a fresh context.Background per run.
func background() context.Context { return context.Background() }

// cancelAfter makes a fresh context per run that cancels before round n.
func cancelAfter(n int) func() context.Context {
	return func() context.Context { return &roundsCtx{context.Background(), n} }
}

// greedyTable builds a table over structures of the given sizes, with
// cells[s][q] as the cost of query q under structure s alone; a cell that
// does not beat base is not kept.
func greedyTable(sizes []int64, weights, base []float64, cells [][]float64) *PairTable {
	t := &PairTable{Weights: weights, Base: base}
	for s, sz := range sizes {
		t.Pool = append(t.Pool, &fakeStructure{fmt.Sprintf("s%d", s), sz})
		var helps []int
		var costs []float64
		for q, c := range cells[s] {
			if c < base[q] {
				helps, costs = append(helps, q), append(costs, c)
			}
		}
		t.Helps, t.HelpCost = append(t.Helps, helps), append(t.HelpCost, costs)
	}
	return t
}

// seeded returns AutoAdmin's start for a seed: the seed's structures taken,
// cur lowered by them from Base, and their sizes used.
func seeded(t *PairTable, seed []int) ([]bool, []float64, int64) {
	taken := make([]bool, len(t.Pool))
	cur := slices.Clone(t.Base)
	var used int64
	for _, si := range seed {
		taken[si] = true
		t.Lower(cur, si)
		used += t.Pool[si].SizeBytes()
	}
	return taken, cur, used
}

// TestGreedyMatchesReference checks the lazy Greedy against the rescanning
// reference on hand-built tables (ties, duplicate and pre-taken entries,
// zero sizes, exact-fit budgets, infinite cells, seeded starts, cancelled
// contexts) and on random tables whose few cost levels make ties common.
func TestGreedyMatchesReference(t *testing.T) {
	inf := math.Inf(1)
	w3 := []float64{1, 2, 1}
	base3 := []float64{10, 10, 10}
	cases := []struct {
		name    string
		tab     *PairTable
		idx     []int
		seed    []int
		pretake []int
		budget  int64
	}{{
		// s0 and s2 are alike, so which one wins depends on the position.
		name: "equal scores, later index first",
		tab: greedyTable([]int64{10, 10, 10}, w3, base3,
			[][]float64{{5, 10, 10}, {10, 6, 10}, {5, 10, 10}}),
		idx: []int{2, 1, 0}, budget: 100,
	}, {
		// s1 ties s0 on score but not on gain; a pick of s0 makes s1 stale.
		name: "equal scores of unequal sizes",
		tab: greedyTable([]int64{10, 20, 10}, w3, base3,
			[][]float64{{4, 10, 10}, {2, 10, 0}, {10, 9, 7}}),
		idx: []int{0, 1, 2}, budget: 30,
	}, {
		name: "duplicate and pre-taken entries",
		tab: greedyTable([]int64{5, 5, 5, 5}, w3, base3,
			[][]float64{{1, 10, 10}, {2, 3, 10}, {10, 3, 4}, {1, 1, 1}}),
		idx: []int{2, 0, 2, 3, 1, 0, 3}, pretake: []int{3}, budget: 100,
	}, {
		name: "zero sizes and an exact fit",
		tab: greedyTable([]int64{0, 7, 3, 0, 4}, w3, base3,
			[][]float64{{9, 10, 10}, {1, 1, 10}, {10, 2, 10}, {10, 10, 9.5}, {10, 10, 1}}),
		idx: []int{0, 1, 2, 3, 4}, budget: 11,
	}, {
		name: "zero budget",
		tab: greedyTable([]int64{0, 1, 0}, w3, base3,
			[][]float64{{9, 10, 10}, {1, 1, 1}, {10, 8, 10}}),
		idx: []int{0, 1, 2}, budget: 0,
	}, {
		name: "infinite cells",
		tab: greedyTable([]int64{10, 10, 10, 5}, w3, []float64{inf, 10, inf},
			[][]float64{{5, 10, inf}, {7, 10, 3}, {inf, math.Inf(-1), 4}, {1, 9, 9}}),
		idx: []int{0, 1, 2, 3}, budget: 100,
	}, {
		name: "seeded start",
		tab: greedyTable([]int64{10, 10, 10, 10}, w3, base3,
			[][]float64{{1, 10, 10}, {2, 10, 10}, {10, 5, 10}, {10, 4, 2}}),
		idx: []int{1, 2, 3, 0}, seed: []int{0}, budget: 30,
	}}
	for _, c := range cases {
		taken, cur, used := seeded(c.tab, c.seed)
		for _, si := range c.pretake {
			taken[si] = true
		}
		picks, err := c.tab.greedyReference(background(), c.idx, slices.Clone(taken), slices.Clone(cur), used, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(picks)+1; n++ {
			if err := checkGreedy(c.tab, cancelAfter(n), c.idx, taken, cur, used, c.budget); err != nil {
				t.Fatalf("%s, cancelled before round %d: %v", c.name, n, err)
			}
		}
		if err := checkGreedy(c.tab, background, c.idx, taken, cur, used, c.budget); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: picks %v", c.name, picks)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		if err := checkFuzzedGreedy(data); err != nil {
			t.Fatalf("random table %d: %v", i, err)
		}
	}
}

// FuzzGreedyMatchesReference checks the lazy Greedy against the rescanning
// reference on tables decoded from fuzz bytes (checkFuzzedGreedy).
func FuzzGreedyMatchesReference(f *testing.F) {
	f.Add([]byte{5, 3, 40, 10, 20, 30, 0, 50, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 255})
	f.Add([]byte{12, 8, 255, 0, 0, 0, 0, 16, 16, 16, 16, 1, 17, 33, 49, 65, 81, 97, 2, 2})
	f.Add([]byte{1, 1, 0, 0})
	f.Add([]byte{8, 4, 128, 3, 3, 3, 3, 3, 3, 3, 3, 32, 32, 32, 32, 64, 64, 64, 64, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkFuzzedGreedy(data); err != nil {
			t.Fatal(err)
		}
	})
}

// greedyBytes hands out input bytes, then zeros once exhausted.
type greedyBytes []byte

func (b *greedyBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// checkFuzzedGreedy decodes a table and a start from data and checks Greedy
// against the reference on it: up to 12 structures of a few sizes (zero
// included) and up to 8 queries whose cells take a few cost levels, so
// scores tie often; +Inf base costs and -Inf cells; an idx with duplicates,
// pre-taken entries, an AutoAdmin-style seed; a budget that is some subset's
// exact size or a fraction of the total; and a cancellation between rounds.
func checkFuzzedGreedy(data []byte) error {
	in := greedyBytes(data)
	ns, nq := 1+in.next()%12, 1+in.next()%8
	budgetByte, cancelByte := in.next(), in.next()
	sizes := make([]int64, ns)
	var total int64
	for s := range sizes {
		sizes[s] = int64(in.next()%5) * 8 // 0, 8, 16, 24 or 32
		total += sizes[s]
	}
	weights, base := make([]float64, nq), make([]float64, nq)
	for q := range base {
		v := in.next()
		weights[q] = float64(1 + v%4)
		if base[q] = float64(8 + v%8); v%16 == 15 {
			base[q] = math.Inf(1)
		}
	}
	cells := make([][]float64, ns)
	for s := range cells {
		cells[s] = make([]float64, nq)
		for q := range cells[s] {
			switch v := in.next(); {
			case v%4 == 0:
				cells[s][q] = base[q] // not kept
			case v%32 == 1:
				cells[s][q] = math.Inf(-1)
			default:
				cells[s][q] = float64(v % 8)
			}
		}
	}
	tab := greedyTable(sizes, weights, base, cells)

	idx := tab.Indices()
	if v := in.next(); v%2 == 1 {
		idx = idx[:0]
		for range 1 + v%(2*ns) {
			idx = append(idx, in.next()%ns)
		}
	}
	var seed []int
	for range in.next() % 3 {
		seed = append(seed, in.next()%ns)
	}
	slices.Sort(seed)
	seed = slices.Compact(seed)
	taken, cur, used := seeded(tab, seed)
	if v := in.next(); v%4 == 0 {
		taken[v/4%ns] = true
	}
	budget := used + total*int64(budgetByte)/255
	if budgetByte%2 == 1 { // the exact size of some subset
		budget = used
		for s, sz := range sizes {
			if budgetByte>>(1+s%7)&1 == 1 {
				budget += sz
			}
		}
	}
	ctx := background
	if cancelByte < 64 {
		ctx = cancelAfter(cancelByte % 16)
	}
	if err := checkGreedy(tab, ctx, idx, taken, cur, used, budget); err != nil {
		return fmt.Errorf("sizes %v weights %v base %v cells %v idx %v seed %v budget %d: %w",
			sizes, weights, base, cells, idx, seed, budget, err)
	}
	return nil
}
