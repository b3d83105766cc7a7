package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// craftedCost wraps a cost model: queries for which unsupported holds answer
// designer.ErrUnsupported, queries for which fail holds answer a hard error
// that names the query by content, so two runs minting fresh query pointers
// report the same text.
type craftedCost struct {
	inner       designer.CostModel
	unsupported func(*workload.Query) bool
	fail        func(*workload.Query) bool
}

func (c craftedCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if c.fail != nil && c.fail(q) {
		return 0, fmt.Errorf("crafted failure on query %x", workload.ContentHash(q))
	}
	if c.unsupported != nil && c.unsupported(q) {
		return 0, designer.ErrUnsupported
	}
	return c.inner.Cost(ctx, q, d)
}

// countingModel counts the cost-model calls the robust loop makes.
type countingModel struct {
	inner designer.CostModel
	calls atomic.Uint64
}

func (c *countingModel) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	c.calls.Add(1)
	return c.inner.Cost(ctx, q, d)
}

func setOf(qs ...*workload.Query) func(*workload.Query) bool {
	m := make(map[*workload.Query]bool, len(qs))
	for _, q := range qs {
		m[q] = true
	}
	return func(q *workload.Query) bool { return m[q] }
}

// sameResult compares two evaluation outcomes: equal cost bits, or errors
// with the same text (the full pass and the indexed pass build distinct
// error values for one failing query).
func sameResult(a, b evalResult) bool {
	if (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err != nil {
		return a.err.Error() == b.err.Error()
	}
	return math.Float64bits(a.cost) == math.Float64bits(b.cost)
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func sameItems(t *testing.T, what string, got, want *workload.Workload) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d items, want %d", what, got.Len(), want.Len())
	}
	for i, it := range got.Items {
		w := want.Items[i]
		if it.Q != w.Q || math.Float64bits(it.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("%s: item %d = (%d, %v), want (%d, %v)", what, i, it.Q.ID, it.Weight, w.Q.ID, w.Weight)
		}
	}
}

// craftedNeighborhood builds a W0 with a duplicated query pointer and a
// neighborhood that exercises every universe path: prefixed neighbors with
// shared and fresh mutants, a neighbor whose items are W0's in another order,
// one whose W0 prefix differs in a weight, a wholly unsupported neighbor,
// and W0 itself. It returns the queries to mark unsupported and two mutants
// that the hard-error cases fail: failLow first appears in neighbor 1,
// failHigh in neighbor 3, and neighbor 5 holds both, failHigh first.
func craftedNeighborhood() (w0 *workload.Workload, nbrs []*workload.Workload, unsupported []*workload.Query, failLow, failHigh *workload.Query) {
	s := testSchema()
	rng := rand.New(rand.NewSource(21))
	base := testWorkload(s, rng, 8)
	mut := testWorkload(s, rng, 8)
	q, m := base.Queries(), mut.Queries()

	w0 = &workload.Workload{}
	for i, it := range base.Items {
		w0.Add(it.Q, it.Weight)
		if i == 2 {
			w0.Add(q[0], 0.75) // duplicate pointer inside W0
		}
	}
	prefixed := func(extra ...*workload.Query) *workload.Workload {
		w := w0.Clone()
		for i, x := range extra {
			w.Add(x, 0.5+float64(i))
		}
		return w
	}
	reversed := &workload.Workload{}
	for i := len(w0.Items) - 1; i >= 0; i-- {
		reversed.Add(w0.Items[i].Q, w0.Items[i].Weight)
	}
	reversed.Add(m[3], 2)
	reweighted := prefixed(m[4])
	reweighted.Items[1].Weight *= 3
	uncostable := workload.New(m[6], m[7])

	nbrs = []*workload.Workload{
		prefixed(m[0], m[1]),
		prefixed(m[1], m[2]),
		reversed,
		reweighted,
		uncostable,
		prefixed(m[6], m[5], m[4], m[2], m[0]), // both failing mutants, m[4] first
		w0,
	}
	return w0, nbrs, []*workload.Query{m[6], m[7], q[2]}, m[2], m[4]
}

// TestIndexedPassMatchesFullPass scores a crafted neighborhood with the
// indexed evaluator and with the memo-free full pass, under three designs,
// at Parallelism 1, 2 and 4: every result, reduction, event multiset and
// moved workload must agree, and errors must carry the same text.
func TestIndexedPassMatchesFullPass(t *testing.T) {
	w0, nbrs, unsupported, failLow, failHigh := craftedNeighborhood()
	s := testSchema()
	db := vertsim.Open(s)
	nominal := vertsim.NewDesigner(db, 256<<20)
	var designs []*designer.Design
	for _, w := range []*workload.Workload{w0, nbrs[0], nbrs[2]} {
		d, err := nominal.Design(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	designs = append(designs, designer.NewDesign(), designs[0]) // the last pass replays

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		cost craftedCost
	}{
		{"unsupported", context.Background(), craftedCost{inner: db, unsupported: setOf(unsupported...)}},
		{"hard-error", context.Background(), craftedCost{inner: db, unsupported: setOf(unsupported...), fail: setOf(failHigh, failLow)}},
		{"hard-error-in-prefix", context.Background(), craftedCost{inner: db, fail: setOf(w0.Items[4].Q, failLow)}},
		{"all-unsupported", context.Background(), craftedCost{inner: db, unsupported: func(*workload.Query) bool { return true }}},
		{"cancelled", cancelled, craftedCost{inner: db}},
	}
	for _, c := range cases {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p%d", c.name, p), func(t *testing.T) {
				cg := &CliffGuard{Cost: c.cost, Opts: Options{Parallelism: p}}
				re := cg.newRunEval(Options{}, w0, nbrs)
				if got := len(re.u.queries); got != 8+8 {
					t.Fatalf("universe has %d queries, want 16", got)
				}
				for k, d := range designs {
					refRec, idxRec := &obs.Recorder{}, &obs.Recorder{}
					ref := cg.evalNeighborhood(c.ctx, nbrs, d, emitter{obs: refRec}, k, obs.PhaseCandidate)
					got := re.score(c.ctx, d, emitter{obs: idxRec}, k, obs.PhaseCandidate)
					for i := range ref {
						if !sameResult(got[i], ref[i]) {
							t.Fatalf("design %d, neighbor %d: indexed %+v, full pass %+v", k, i, got[i], ref[i])
						}
					}
					rw, rerr := worstOf(ref)
					gw, gerr := worstOf(got)
					if !sameErr(gerr, rerr) || math.Float64bits(gw) != math.Float64bits(rw) {
						t.Fatalf("design %d: worstOf indexed (%v, %v), full (%v, %v)", k, gw, gerr, rw, rerr)
					}
					rtop, rerr := topNeighbors(ref, 0.4)
					gtop, gerr := topNeighbors(got, 0.4)
					if !sameErr(gerr, rerr) || fmt.Sprint(gtop) != fmt.Sprint(rtop) {
						t.Fatalf("design %d: topNeighbors indexed (%v, %v), full (%v, %v)", k, gtop, gerr, rtop, rerr)
					}
					a, b := normalize(refRec.Events()), normalize(idxRec.Events())
					if fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("design %d: events differ:\n  full:    %v\n  indexed: %v", k, a, b)
					}
					if rerr != nil {
						continue
					}
					targets := append(append([]int(nil), rtop...), rtop[0])
					var tw []*workload.Workload
					for _, i := range targets {
						tw = append(tw, nbrs[i])
					}
					sameItems(t, fmt.Sprintf("design %d: moved workload", k),
						re.u.moveWorkload(targets, 1.5, re.unit(c.ctx, d)),
						cg.MoveWorkload(c.ctx, w0, tw, d, 1.5))
				}
			})
		}
	}
}

// runCrafted runs one robust design with the given cost model and evaluator
// at the given parallelism and returns everything the equivalence contract
// covers.
func runCrafted(ctx context.Context, w0 *workload.Workload, cost designer.CostModel, nominal designer.Designer, full bool, p int) (string, []Trace, []obs.Event, error) {
	s := testSchema()
	opts := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11, Parallelism: p, fullPassEval: full}
	rec := &obs.Recorder{}
	opts.Observer = rec
	sampler := sample.New(distance.NewEuclidean(s.NumColumns()), sample.NewMutator(s))
	d, traces, err := New(nominal, cost, sampler, opts).DesignWithTrace(ctx, w0)
	ds := "<nil>"
	if d != nil {
		ds = d.String()
	}
	return ds, traces, normalize(rec.Events()), err
}

// TestIndexedRunMatchesFullPass runs whole robust designs, with the indexed
// evaluator and under FullPassEval, at Parallelism 1, 2 and 4: a W0 with
// duplicate query pointers, unsupported queries, a hard error on sampled
// mutants, and a cancelled context. Designs, traces, per-pass event
// multisets and errors must be identical everywhere.
func TestIndexedRunMatchesFullPass(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(5))
	base := testWorkload(s, rng, 10)
	w0 := base.Clone()
	w0.Add(base.Items[3].Q, 2.5) // duplicate pointer inside W0
	inW0 := setOf(w0.Queries()...)
	db := vertsim.Open(s)
	nominal := vertsim.NewDesigner(db, 256<<20)
	byHash := func(mod uint64) func(*workload.Query) bool {
		return func(q *workload.Query) bool { return workload.ContentHash(q)%mod == 0 }
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		cost    designer.CostModel
		nominal designer.Designer
		wantErr bool
	}{
		{"unsupported", context.Background(), craftedCost{inner: db, unsupported: byHash(4)}, nominal, false},
		{"hard-error", context.Background(), craftedCost{inner: db, fail: func(q *workload.Query) bool {
			return !inW0(q) && workload.ContentHash(q)%7 == 0
		}}, nominal, true},
		{"cancelled", cancelled, db, stubDesigner{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refD, refT, refE, refErr := runCrafted(c.ctx, w0, c.cost, c.nominal, true, 1)
			if (refErr != nil) != c.wantErr {
				t.Fatalf("reference run: err = %v, want error %v", refErr, c.wantErr)
			}
			for _, full := range []bool{true, false} {
				for _, p := range []int{1, 2, 4} {
					d, tr, ev, err := runCrafted(c.ctx, w0, c.cost, c.nominal, full, p)
					name := fmt.Sprintf("full=%v/p%d", full, p)
					if !sameErr(err, refErr) {
						t.Fatalf("%s: err = %v, want %v", name, err, refErr)
					}
					if d != refD {
						t.Fatalf("%s: design %s, want %s", name, d, refD)
					}
					if fmt.Sprint(tr) != fmt.Sprint(refT) {
						t.Fatalf("%s: traces %v, want %v", name, tr, refT)
					}
					if fmt.Sprint(ev) != fmt.Sprint(refE) {
						t.Fatalf("%s: events differ:\n  got:  %v\n  want: %v", name, ev, refE)
					}
				}
			}
		})
	}
}

// TestParallelCostCallsMatchSerial pins the indexed evaluator's call count:
// each vector entry is computed exactly once, so a run at Parallelism 2 or 4
// makes exactly the cost-model calls of Parallelism 1, and every call fills
// one cell of the universe.
func TestParallelCostCallsMatchSerial(t *testing.T) {
	s := testSchema()
	w := testWorkload(s, rand.New(rand.NewSource(3)), 10)
	run := func(p int) (uint64, RunStats) {
		cg, db := newGuard(s, Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11, Parallelism: p})
		counting := &countingModel{inner: db}
		cg.Cost = counting
		h := cg.Start(context.Background(), w)
		if _, _, err := h.Await(context.Background()); err != nil {
			t.Fatal(err)
		}
		return counting.calls.Load(), h.Stats()
	}
	ref, st := run(1)
	if st.UniverseQueries == 0 || st.UniverseCells == 0 || st.UniverseCells%uint64(st.UniverseQueries) != 0 {
		t.Fatalf("universe stats %d queries, %d cells: want whole vectors", st.UniverseQueries, st.UniverseCells)
	}
	if ref != st.UniverseCells {
		t.Fatalf("p=1: %d cost-model calls, %d cells filled", ref, st.UniverseCells)
	}
	for _, p := range []int{2, 4} {
		if got, pst := run(p); got != ref || pst != st {
			t.Fatalf("p=%d: %d calls, stats %+v; p=1: %d calls, stats %+v", p, got, pst, ref, st)
		}
	}
}

// TestUniverseNumbering pins the universe layout: W0's distinct queries take
// indices [0, nW0) in item order, mutants follow in first-appearance order,
// prefixed neighbors keep only their tails, and the slow-path flags mark the
// neighbors holding first occurrences.
func TestUniverseNumbering(t *testing.T) {
	w0, nbrs, _, _, _ := craftedNeighborhood()
	u := newUniverse(w0, nbrs)
	if u.nW0 != 8 || len(u.queries) != 16 {
		t.Fatalf("nW0 = %d, |universe| = %d; want 8, 16", u.nW0, len(u.queries))
	}
	for k, it := range w0.Items {
		if u.queries[u.w0Idx[k]] != it.Q {
			t.Fatalf("W0 item %d maps to the wrong query", k)
		}
	}
	if u.w0Idx[3] != 0 || u.w0Weight[0] != w0.Items[0].Weight+0.75 {
		t.Fatalf("duplicate W0 pointer: index %d, weight %v", u.w0Idx[3], u.w0Weight[0])
	}
	wantPrefix := []bool{true, true, false, false, false, true, true}
	wantFirst := []bool{true, true, true, true, true, true, false}
	for i, n := range u.nbrs {
		if n.prefix != wantPrefix[i] || n.first != wantFirst[i] {
			t.Fatalf("neighbor %d: prefix %v first %v, want %v %v", i, n.prefix, n.first, wantPrefix[i], wantFirst[i])
		}
		items := nbrs[i].Items
		if n.prefix {
			items = items[len(w0.Items):]
		}
		for k, x := range n.idx {
			if u.queries[x] != items[k].Q {
				t.Fatalf("neighbor %d item %d maps to the wrong query", i, k)
			}
		}
	}
	if got := u.nbrs[0].idx; got[0] != 8 || got[1] != 9 {
		t.Fatalf("first mutants numbered %v, want [8 9]", got)
	}
}

// TestRetainKeepsIncumbentAndCandidate pins the two-generation policy: after
// retain only the incumbent's and the latest candidate's vectors survive,
// dropped vectors are reused, and a run never allocates a fourth.
func TestRetainKeepsIncumbentAndCandidate(t *testing.T) {
	w0, nbrs, _, _, _ := craftedNeighborhood()
	s := testSchema()
	db := vertsim.Open(s)
	cg := &CliffGuard{Cost: db, Opts: Options{Parallelism: 1}}
	re := cg.newRunEval(Options{}, w0, nbrs)
	tbl := s.Tables()[0]
	var ds []*designer.Design
	for i := 0; i < 5; i++ {
		p, err := vertsim.NewProjection(s, tbl.Name, []int{tbl.Columns[i].ID}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, designer.NewDesign(p))
	}
	seen := map[*costVec]bool{}
	score := func(d *designer.Design) {
		re.score(context.Background(), d, emitter{}, 0, obs.PhaseCandidate)
		seen[re.vec(d.Fingerprint())] = true
	}
	score(ds[0])
	for i := 1; i < len(ds); i++ {
		score(ds[i])
		re.retain(ds[0], ds[i])
		if len(re.vecs) != 2 || re.vec(ds[0].Fingerprint()) == nil || re.vec(ds[i].Fingerprint()) == nil {
			t.Fatalf("iteration %d: %d vectors kept, want the incumbent's and candidate %d's", i, len(re.vecs), i)
		}
	}
	if len(seen) > 3 {
		t.Fatalf("%d vectors allocated, want at most 3", len(seen))
	}
	if want := uint64(len(ds) * len(re.u.queries)); re.cells != want {
		t.Fatalf("%d cells filled, want %d", re.cells, want)
	}
}

// r1Pass builds the allocation gate's fixture: R1 month 0 on the warehouse
// schema, a 12-sample vertsim neighborhood, and the nominal design.
func r1Pass(tb testing.TB) (*CliffGuard, *workload.Workload, []*workload.Workload, *designer.Design) {
	tb.Helper()
	s := datagen.Warehouse(1)
	cfg := wlgen.R1Config(s, 42)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	set, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	w0 := set.Months[0]
	db := vertsim.Open(s)
	cg := New(vertsim.NewDesigner(db, 256<<20), db,
		sample.New(distance.NewEuclidean(s.NumColumns()), sample.NewMutator(s)), Options{Parallelism: 1})
	nbrs, err := cg.Sampler.Neighborhood(rand.New(rand.NewSource(42)), w0, 0.002, 12)
	if err != nil {
		tb.Fatal(err)
	}
	nbrs = append(nbrs, w0)
	d, err := cg.Nominal.Design(context.Background(), w0)
	if err != nil {
		tb.Fatal(err)
	}
	return cg, w0, nbrs, d
}

// indexedRound is one live pass plus one replayed pass under d, then the
// eviction that hands d's vector back for the next round's live pass.
func indexedRound(tb testing.TB, re *runEval, d, other *designer.Design) {
	ctx := context.Background()
	for k := 0; k < 2; k++ {
		if _, err := worstOf(re.score(ctx, d, emitter{}, 0, obs.PhaseCandidate)); err != nil {
			tb.Fatal(err)
		}
	}
	re.retain(other, other)
}

// TestIndexedPassAllocations gates the evaluator's allocations on R1 month
// 0: a live pass reuses a dropped vector, so one live plus one replayed pass
// allocates only the fill's bookkeeping.
func TestIndexedPassAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("generates R1")
	}
	cg, w0, nbrs, d := r1Pass(t)
	re := cg.newRunEval(Options{}, w0, nbrs)
	other := designer.NewDesign()
	indexedRound(t, re, d, other)
	const bound = 4
	if got := testing.AllocsPerRun(20, func() { indexedRound(t, re, d, other) }); got > bound {
		t.Fatalf("one live and one replayed pass: %v allocs, want <= %d", got, bound)
	}
}

// BenchmarkIndexedPass measures one live plus one replayed pass over R1
// month 0 (12 samples, vertsim). The warm variants cost through an
// evalcache.Layer over a Shared store that an earlier pass populated, as a
// served run over the cross-tenant memo does, so every live entry is a hit;
// at parallelism 4 the workers probe one design table at once.
func BenchmarkIndexedPass(b *testing.B) {
	cg, w0, nbrs, d := r1Pass(b)
	db := cg.Cost
	for _, c := range []struct {
		warm bool
		p    int
	}{{false, 1}, {false, 2}, {true, 1}, {true, 4}} {
		name := fmt.Sprintf("parallelism=%d", c.p)
		if c.warm {
			name = "warm/" + name
		}
		b.Run(name, func(b *testing.B) {
			cg.Opts.Parallelism = c.p
			cg.Cost = db
			if c.warm {
				shared := evalcache.NewShared()
				cg.Cost = &evalcache.Layer{Inner: db, Read: shared, Write: shared}
				indexedRound(b, cg.newRunEval(Options{}, w0, nbrs), d, designer.NewDesign())
			}
			re := cg.newRunEval(Options{}, w0, nbrs)
			other := designer.NewDesign()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				indexedRound(b, re, d, other)
			}
			b.ReportMetric(float64(len(re.u.queries)), "queries")
		})
	}
	cg.Cost = db
}

// TestKernelFillMatchesFullPass scores a universe large enough that the
// kernel fill fans out (40 samples over R1 month 0) at Parallelism 1 and 4,
// directly on vertsim and through a warm Layer, and requires every result
// to equal the memo-free full pass bit for bit. Run it under -race.
func TestKernelFillMatchesFullPass(t *testing.T) {
	if testing.Short() {
		t.Skip("generates R1")
	}
	cg, w0, _, d := r1Pass(t)
	nbrs, err := cg.Sampler.Neighborhood(rand.New(rand.NewSource(7)), w0, 0.002, 40)
	if err != nil {
		t.Fatal(err)
	}
	nbrs = append(nbrs, w0)
	designs := []*designer.Design{d, designer.NewDesign(), designer.NewDesign(d.Structures[:len(d.Structures)/2]...)}
	db := cg.Cost
	want := make([][]evalResult, len(designs))
	for i, dd := range designs {
		want[i] = cg.evalNeighborhood(context.Background(), nbrs, dd, emitter{}, 0, obs.PhaseCandidate)
	}
	shared := evalcache.NewShared()
	for _, layer := range []bool{false, true, true} {
		for _, p := range []int{1, 4} {
			cg.Opts.Parallelism, cg.Cost = p, db
			if layer {
				cg.Cost = &evalcache.Layer{Inner: db, Read: shared, Write: shared}
			}
			re := cg.newRunEval(Options{}, w0, nbrs)
			if re.kernel == nil || len(re.u.queries) < 2*kernelBlocks*64 {
				t.Fatalf("layer=%v: kernel %v over %d queries, want one that fans out", layer, re.kernel != nil, len(re.u.queries))
			}
			for i, dd := range designs {
				for k, r := range re.score(context.Background(), dd, emitter{}, 0, obs.PhaseCandidate) {
					if !sameResult(r, want[i][k]) {
						t.Fatalf("layer=%v p=%d design %d neighbor %d: %+v, full pass %+v", layer, p, i, k, r, want[i][k])
					}
				}
			}
		}
	}
	cg.Cost = db
}
