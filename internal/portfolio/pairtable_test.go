package portfolio

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"cliffguard/internal/baselines"
	"cliffguard/internal/designer"
	"cliffguard/internal/portfolio/portfoliotest"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// tableModel is a min-composed fake what-if model. base holds each query's
// empty-design cost by query ID (absent: ErrUnsupported under every design);
// pair[key][id] lowers a query's cost when that structure is in the design;
// unsup[key][id] makes the singleton design {key} ErrUnsupported for the
// query (in a larger design the structure is simply not used); a hard key
// fails every design holding it with errHard.
type tableModel struct {
	base  map[int64]float64
	pair  map[string]map[int64]float64
	unsup map[string]map[int64]bool
	hard  map[string]bool
}

var errHard = errors.New("tableModel: hard failure")

func (m *tableModel) Cost(_ context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	best, ok := m.base[q.ID]
	if !ok {
		return 0, designer.ErrUnsupported
	}
	if d == nil {
		return best, nil
	}
	for _, s := range d.Structures {
		if m.hard[s.Key()] {
			return 0, errHard
		}
		if m.unsup[s.Key()][q.ID] {
			if d.Len() == 1 {
				return 0, designer.ErrUnsupported
			}
			continue
		}
		if c, ok := m.pair[s.Key()][q.ID]; ok && c < best {
			best = c
		}
	}
	return best, nil
}

// tq builds query id with a template of its own (CompressByTemplate keeps
// it separate).
func tq(id int64) *workload.Query {
	return workload.FromSpec(id, time.Time{}, &workload.Spec{Table: "f", SelectCols: []int{int(id)}})
}

// fixedNominal is a nominal designer exposing a fixed candidate pool, as the
// local-search baselines require.
type fixedNominal struct{ portfoliotest.FixedProvider }

func (fixedNominal) Name() string { return "fixed" }

func (fixedNominal) Design(context.Context, *workload.Workload) (*designer.Design, error) {
	return nil, errors.New("fixedNominal: not a designer")
}

type designFunc func(ctx context.Context, w *workload.Workload) (*designer.Design, error)

func (f designFunc) Name() string { return "GreedySelect" }

func (f designFunc) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	return f(ctx, w)
}

// pairTableDesigners returns every structure-selection designer built on
// designer.PairTable, pinned to a fixed pool. The local-search baselines run
// with Γ = 0, so their union workload is w with doubled weights.
func pairTableDesigners(cm designer.CostModel, pool []designer.Structure, budget int64) []designer.Designer {
	provider := portfoliotest.FixedProvider(pool)
	return []designer.Designer{
		designFunc(func(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
			return designer.GreedySelect(ctx, cm, w, pool, budget)
		}),
		&AutoAdmin{Cost: cm, Provider: provider, Budget: budget},
		&ILPDesigner{Cost: cm, Provider: provider, Budget: budget, MaxCandidates: -1},
		&baselines.OptimalLocalSearch{Nominal: fixedNominal{provider}, Cost: cm,
			Sampler: &sample.Sampler{}, Budget: budget, Samples: 2},
		&baselines.GreedyLocalSearch{Nominal: fixedNominal{provider}, Cost: cm,
			Sampler: &sample.Sampler{}, Budget: budget, Samples: 2},
	}
}

// TestDesignersSharePairTableContract pins BuildPairTable's error contract
// on every designer built on it: an unsupported query drops out, a hard
// error on a singleton pair fails the design, and an unsupported pair never
// serves its query.
func TestDesignersSharePairTableContract(t *testing.T) {
	ok, bad := tq(1), tq(2)
	a, b := stubStructure{"a", 10}, stubStructure{"b", 10}
	x, h := stubStructure{"x", 10}, stubStructure{"h", 10}
	m := &tableModel{
		base: map[int64]float64{1: 100},
		// a would win if the unsupported query counted; b wins on ok alone.
		pair:  map[string]map[int64]float64{"a": {1: 50, 2: 1}, "b": {1: 40}, "x": {1: 1}},
		unsup: map[string]map[int64]bool{"x": {1: true}},
		hard:  map[string]bool{"h": true},
	}
	ctx := context.Background()
	cases := []struct {
		name   string
		w      *workload.Workload
		pool   []designer.Structure
		budget int64
		want   *designer.Design // compared by fingerprint; nil means errHard
	}{
		{"unsupported query drops", workload.New(ok, bad), []designer.Structure{a, b}, 10, designer.NewDesign(b)},
		{"without the unsupported query", workload.New(ok), []designer.Structure{a, b}, 10, designer.NewDesign(b)},
		{"hard pair error fails", workload.New(ok), []designer.Structure{a, h}, 20, nil},
		{"unsupported pair never serves", workload.New(ok), []designer.Structure{x, b}, 20, designer.NewDesign(b)},
	}
	for _, tc := range cases {
		for _, d := range pairTableDesigners(m, tc.pool, tc.budget) {
			got, err := d.Design(ctx, tc.w)
			if tc.want == nil {
				if !errors.Is(err, errHard) {
					t.Errorf("%s / %s: err = %v, want errHard wrapped", tc.name, d.Name(), err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s / %s: %v", tc.name, d.Name(), err)
				continue
			}
			if got.Fingerprint() != tc.want.Fingerprint() {
				t.Errorf("%s / %s: design %v, want %v", tc.name, d.Name(), got, tc.want)
			}
		}
	}
}

// fuzzBytes hands out fuzz input bytes, then zeros once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// servingStub is a stubStructure that implements designer.Server: it serves
// every query except the ones in skip.
type servingStub struct {
	stubStructure
	skip map[int64]bool
}

func (s *servingStub) Serves(q *workload.Query) bool { return !s.skip[q.ID] }

// The dense search steps the pair table ran before it went sparse:
// reference implementations for the sparse ones, which must match them bit
// for bit. They read a dense matrix costed through the model for every
// pair, not the table's kept cells.

// denseTable is a pair table's pool, weights and Base with the dense cell
// matrix: cell[si][qi] is the model's cost of Queries[qi] with Pool[si]
// alone, +Inf where that is ErrUnsupported.
type denseTable struct {
	*designer.PairTable
	cell [][]float64
}

func newDenseTable(ctx context.Context, cm designer.CostModel, t *designer.PairTable) (*denseTable, error) {
	cell := make([][]float64, len(t.Pool))
	for si, s := range t.Pool {
		d := designer.NewDesign(s)
		cell[si] = make([]float64, len(t.Queries))
		for qi, q := range t.Queries {
			c, err := cm.Cost(ctx, q, d)
			if errors.Is(err, designer.ErrUnsupported) {
				c = math.Inf(1)
			} else if err != nil {
				return nil, err
			}
			cell[si][qi] = c
		}
	}
	return &denseTable{t, cell}, nil
}

func denseBenefitPerByte(t *denseTable, si int) float64 {
	var total float64
	for qi, c := range t.cell[si] {
		if b := t.Base[qi] - c; b > 0 {
			total += t.Weights[qi] * b
		}
	}
	return total / float64(max(t.Pool[si].SizeBytes(), 1))
}

func denseTop(t *denseTable, idx []int, k int) []int {
	if k < 0 || len(idx) <= k {
		return idx
	}
	score := make([]float64, len(t.Pool))
	for _, si := range idx {
		score[si] = denseBenefitPerByte(t, si)
	}
	top := append([]int(nil), idx...)
	sort.SliceStable(top, func(i, j int) bool { return score[top[i]] > score[top[j]] })
	top = top[:k]
	sort.Ints(top)
	return top
}

func denseLower(t *denseTable, cur []float64, si int) {
	for qi, c := range t.cell[si] {
		if c < cur[qi] {
			cur[qi] = c
		}
	}
}

func denseGreedy(t *denseTable, idx []int, taken []bool, cur []float64, used, budget int64) []int {
	var picks []int
	for {
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
			for qi, c := range t.cell[si] {
				if c < cur[qi] {
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
			return picks
		}
		taken[bestIdx] = true
		denseLower(t, cur, bestIdx)
		used += t.Pool[bestIdx].SizeBytes()
		picks = append(picks, bestIdx)
	}
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkSparseSearch checks the table built over pool (whose structures
// report Serves) and the one built over the same structures without Serves
// against the dense matrix the model gives: both keep exactly the cells
// below Base, at the model's cost, and every search step equals its dense
// reference, bit for bit.
func checkSparseSearch(t *testing.T, m designer.CostModel, w *workload.Workload, pool, plain []designer.Structure, budget int64) {
	ctx := context.Background()
	sparse, err := designer.BuildPairTable(ctx, m, w, pool)
	if err != nil {
		t.Fatal(err)
	}
	unserved, err := designer.BuildPairTable(ctx, m, w, plain)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := newDenseTable(ctx, m, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(sparse.Base, unserved.Base) || len(sparse.Helps) != len(unserved.Helps) {
		t.Fatalf("Base %v, without Serves %v", sparse.Base, unserved.Base)
	}
	for si := range sparse.Pool {
		var helps []int
		var costs []float64
		for qi, c := range dense.cell[si] {
			if c < dense.Base[qi] {
				helps = append(helps, qi)
				costs = append(costs, c)
			}
		}
		for _, tab := range []*designer.PairTable{sparse, unserved} {
			if !slices.Equal(tab.Helps[si], helps) || !sameBits(tab.HelpCost[si], costs) {
				t.Fatalf("Helps[%d] = %v at %v, want %v at %v", si, tab.Helps[si], tab.HelpCost[si], helps, costs)
			}
		}
		if a, b := sparse.BenefitPerByte(si), denseBenefitPerByte(dense, si); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("BenefitPerByte(%d) = %v, dense %v", si, a, b)
		}
	}
	for k := -1; k <= len(sparse.Pool); k++ {
		if a, b := sparse.Top(sparse.Indices(), k), denseTop(dense, sparse.Indices(), k); !slices.Equal(a, b) {
			t.Fatalf("Top(%d) = %v, dense %v", k, a, b)
		}
	}
	// Greedy from Base, and from every one-structure seed as AutoAdmin runs it.
	for seed := -1; seed < len(sparse.Pool); seed++ {
		taken, denseTaken := make([]bool, len(sparse.Pool)), make([]bool, len(sparse.Pool))
		cur := append([]float64(nil), sparse.Base...)
		var used int64
		if seed >= 0 {
			if used = sparse.Pool[seed].SizeBytes(); used > budget {
				continue
			}
			taken[seed], denseTaken[seed] = true, true
			sparse.Lower(cur, seed)
			ref := append([]float64(nil), sparse.Base...)
			denseLower(dense, ref, seed)
			if !sameBits(cur, ref) {
				t.Fatalf("Lower(%d) = %v, dense %v", seed, cur, ref)
			}
		}
		denseCur := append([]float64(nil), cur...)
		picks, err := sparse.Greedy(ctx, sparse.Indices(), taken, cur, used, budget)
		if err != nil {
			t.Fatal(err)
		}
		want := denseGreedy(dense, sparse.Indices(), denseTaken, denseCur, used, budget)
		if !slices.Equal(picks, want) || !sameBits(cur, denseCur) || !slices.Equal(taken, denseTaken) {
			t.Fatalf("seed %d: Greedy picks %v cur %v, dense %v cur %v", seed, picks, cur, want, denseCur)
		}
	}
	// Every designer picks the same design over either pool.
	denseDesigners := pairTableDesigners(m, plain, budget)
	for i, d := range pairTableDesigners(m, pool, budget) {
		got, err := d.Design(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		want, err := denseDesigners[i].Design(ctx, w)
		if err != nil {
			t.Fatalf("%s (dense): %v", d.Name(), err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: design %v, dense %v", d.Name(), got, want)
		}
	}
}

// FuzzPairTable builds small instances (at most 8 structures, 6 queries)
// from fuzz bytes over a table-backed fake model and checks every designer
// built on the pair table: each design fits the budget, and an Exact ILP
// design attains the brute-force surrogate optimum and is no worse than
// GreedySelect's or AutoAdmin's. The structures report Serves false on the
// queries they do not touch, and the tables built with and without Serves,
// and their search steps, must match the dense matrix costed from the model.
func FuzzPairTable(f *testing.F) {
	f.Add([]byte{4, 3, 128, 10, 20, 30, 40, 50, 1, 60, 2, 70, 3, 9, 17, 33, 65, 129, 200, 8, 100, 150})
	f.Add([]byte{8, 6, 64, 1, 2, 3, 4, 5, 6, 7, 8, 90, 1, 80, 2, 0, 3, 70, 4, 60, 5, 50, 6})
	f.Add([]byte{1, 1, 255, 7, 9, 9, 8})
	f.Add([]byte{0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		ns, nq := int(in.next())%9, 1+int(in.next())%6
		budgetFrac := float64(in.next()) / 255
		m := &tableModel{base: map[int64]float64{}, pair: map[string]map[int64]float64{},
			unsup: map[string]map[int64]bool{}}
		pool := make([]designer.Structure, ns)
		plain := make([]designer.Structure, ns)
		stubs := make([]*servingStub, ns)
		var total int64
		for s := range pool {
			key := string(rune('a' + s))
			stubs[s] = &servingStub{stubStructure{key, 1 + int64(in.next())%100}, map[int64]bool{}}
			pool[s], plain[s] = stubs[s], stubs[s].stubStructure
			total += pool[s].SizeBytes()
			m.pair[key], m.unsup[key] = map[int64]float64{}, map[int64]bool{}
		}
		budget := int64(budgetFrac * float64(total))
		w := &workload.Workload{}
		for qi := 0; qi < nq; qi++ {
			id := int64(qi + 1)
			w.Add(tq(id), 0.1+float64(in.next())/64)
			if v := in.next(); v%10 != 0 { // one in ten queries is unsupported
				m.base[id] = 10 + float64(v)
			}
			for s := range pool {
				key := pool[s].Key()
				switch v := in.next(); {
				case v%8 == 0:
					m.unsup[key][id] = true
				case v%8 == 1: // the structure does not touch the query
					stubs[s].skip[id] = true
				default:
					m.pair[key][id] = m.base[id] * float64(v) / 200
				}
			}
		}
		checkSparseSearch(t, m, w, pool, plain, budget)
		ctx := context.Background()
		for _, d := range pairTableDesigners(m, pool, budget) {
			got, err := d.Design(ctx, w)
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			if got.SizeBytes() > budget {
				t.Fatalf("%s: design of %d bytes exceeds budget %d", d.Name(), got.SizeBytes(), budget)
			}
		}

		res, err := (&ILPDesigner{Cost: m, Provider: portfoliotest.FixedProvider(pool),
			Budget: budget, MaxCandidates: -1}).DesignExact(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			return
		}
		// Objectives are the surrogate's (each query at its cheapest chosen
		// structure or base): a singleton design whose pair is unsupported
		// would drop that query from a plain workload evaluation.
		table, err := designer.BuildPairTable(ctx, m, w, pool)
		if err != nil {
			t.Fatal(err)
		}
		objective := func(d *designer.Design) float64 {
			cur := append([]float64(nil), table.Base...)
			keys := d.Keys()
			for si, s := range table.Pool {
				if keys[s.Key()] {
					table.Lower(cur, si)
				}
			}
			return table.Objective(cur)
		}
		brute, err := portfoliotest.BruteForceObjective(table.Problem(table.Indices(), budget))
		if err != nil {
			t.Fatal(err)
		}
		ilpObj := objective(res.Design)
		if !approx(ilpObj, brute) {
			t.Fatalf("Exact ILP objective %.12g, brute-force optimum %.12g", ilpObj, brute)
		}
		greedy, err := designer.GreedySelect(ctx, m, w, pool, budget)
		if err != nil {
			t.Fatal(err)
		}
		aa, err := (&AutoAdmin{Cost: m, Provider: portfoliotest.FixedProvider(pool), Budget: budget}).Design(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*designer.Design{"GreedySelect": greedy, "AutoAdmin": aa} {
			if c := objective(d); ilpObj > c && !approx(ilpObj, c) {
				t.Fatalf("Exact ILP objective %.12g, more than %s's %.12g", ilpObj, name, c)
			}
		}
	})
}
