package online

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

func testSchema() *schema.Schema {
	cols := make([]schema.ColumnDef, 16)
	for i := range cols {
		cols[i] = schema.ColumnDef{
			Name:        "c" + string(rune('a'+i)),
			Type:        schema.Int64,
			Cardinality: 400 + int64(i)*100,
		}
	}
	return schema.MustNew([]schema.TableDef{
		{Name: "facts", Fact: true, Rows: 200_000, Columns: cols},
	})
}

// popQuery builds the i-th query of a deterministic stream: each population
// cycles through 4 fixed templates over its own disjoint column range
// (population 0: cols 0-7, population 1: cols 8-15). Because the cycle length
// divides the test windows' bucket sizes, every rotation-boundary window holds
// whole cycles — identical normalized frequency vectors, so drift is exactly
// zero on stationary traffic and large on a population switch.
func popQuery(s *schema.Schema, i, pop int) *workload.Query {
	tbl := s.Tables()[0]
	base := pop*8 + 2*(i%4)
	c := tbl.Columns[base]
	return workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{
		Table:      tbl.Name,
		SelectCols: []int{tbl.Columns[base].ID, tbl.Columns[base+1].ID},
		Preds: []workload.Pred{
			{Col: c.ID, Op: workload.Eq, Lo: 3, Hi: 3, Sel: 1 / float64(c.Cardinality)},
		},
	})
}

// countCost wraps a cost model with an invocation tally.
type countCost struct {
	inner designer.CostModel
	calls atomic.Uint64
}

func (c *countCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	c.calls.Add(1)
	return c.inner.Cost(ctx, q, d)
}

// swapDesigner lets a test exchange the nominal designer between re-designs.
type swapDesigner struct {
	inner atomic.Pointer[designer.Designer]
}

func newSwapDesigner(d designer.Designer) *swapDesigner {
	sd := &swapDesigner{}
	sd.inner.Store(&d)
	return sd
}
func (sd *swapDesigner) set(d designer.Designer) { sd.inner.Store(&d) }
func (sd *swapDesigner) Name() string            { return (*sd.inner.Load()).Name() }
func (sd *swapDesigner) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	return (*sd.inner.Load()).Design(ctx, w)
}

// badDesigner returns structure-less designs whose worst-case cost regresses
// vs any useful incumbent (every query pays the super-projection scan).
type badDesigner struct{}

func (badDesigner) Name() string { return "bad" }
func (badDesigner) Design(context.Context, *workload.Workload) (*designer.Design, error) {
	return designer.NewDesign(), nil
}

// blockingCost blocks the first Cost call until released, so a test can hold
// a re-design provably in flight.
type blockingCost struct {
	inner   designer.CostModel
	entered chan struct{}
	release chan struct{}
	once    atomic.Bool
}

func (b *blockingCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if b.once.CompareAndSwap(false, true) {
		close(b.entered)
		<-b.release
	}
	return b.inner.Cost(ctx, q, d)
}

type testRig struct {
	ctrl     *Controller
	counting *countCost
	swap     *swapDesigner
	met      *obs.Metrics
	next     int // stream position for feed
}

func newRig(t *testing.T, mutate func(*Config)) *testRig {
	t.Helper()
	s := testSchema()
	db := vertsim.Open(s)
	metric := distance.NewEuclidean(s.NumColumns())
	counting := &countCost{inner: db}
	swap := newSwapDesigner(vertsim.NewDesigner(db, 256<<20))
	met := obs.NewMetrics()
	cfg := Config{
		Designer:      swap,
		Cost:          counting,
		Sampler:       sample.New(metric, sample.NewMutator(s)),
		Metric:        metric,
		DriftFraction: 0.05,
		Window:        WindowConfig{Buckets: 2, BucketSize: 8},
		Metrics:       met,
	}
	cfg.Options.Gamma = 0.004
	cfg.Options.Samples = 8
	cfg.Options.Iterations = 2
	cfg.Options.Seed = 7
	cfg.Options.Parallelism = 1
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{ctrl: ctrl, counting: counting, swap: swap, met: met}
}

// feed streams n observations from the given population, advancing the rig's
// stream position, and reports whether any drift check fired.
func feed(rig *testRig, s *schema.Schema, pop, n int) (fired bool) {
	for i := 0; i < n; i++ {
		if dec := rig.ctrl.Observe(popQuery(s, rig.next, pop), 1); dec.Fired {
			fired = true
		}
		rig.next++
	}
	return fired
}

func TestWindowRotationEvictionSkips(t *testing.T) {
	met := obs.NewMetrics()
	w := NewWindow(WindowConfig{Buckets: 2, BucketSize: 4}, met)
	s := testSchema()

	for i := 0; i < 4; i++ {
		accepted, rotated := w.Observe(popQuery(s, i, 0), 1)
		if !accepted {
			t.Fatalf("observation %d rejected", i)
		}
		if rotated != (i == 3) {
			t.Fatalf("observation %d: rotated=%v", i, rotated)
		}
	}
	// Degenerate observations are skipped, not absorbed.
	if acc, _ := w.Observe(nil, 1); acc {
		t.Fatal("nil query accepted")
	}
	if acc, _ := w.Observe(popQuery(s, 4, 0), 0); acc {
		t.Fatal("zero-weight observation accepted")
	}

	// Fill past capacity: 2 retained buckets of 4 plus the open one; the
	// oldest bucket (4 observations) falls off on the third rotation.
	for i := 0; i < 9; i++ {
		w.Observe(popQuery(s, 4+i, 0), 1)
	}
	st := w.Stats()
	if st.Observed != 13 || st.Skipped != 2 {
		t.Fatalf("observed=%d skipped=%d, want 13/2", st.Observed, st.Skipped)
	}
	if st.Evicted != 4 {
		t.Fatalf("evicted=%d, want 4 (one full bucket)", st.Evicted)
	}
	if st.Queries != 13-4 {
		t.Fatalf("window holds %d queries, want %d", st.Queries, 13-4)
	}
	if st.Rotations != 3 {
		t.Fatalf("rotations=%d, want 3", st.Rotations)
	}
	if met.OnlineObserved.Load() != 13 || met.OnlineEvicted.Load() != 4 || met.WorkloadAddSkips.Load() != 2 {
		t.Fatalf("counters: observed=%d evicted=%d skips=%d",
			met.OnlineObserved.Load(), met.OnlineEvicted.Load(), met.WorkloadAddSkips.Load())
	}

	// Snapshot copy-on-write: a returned snapshot is never mutated.
	snap := w.Snapshot()
	n := snap.Len()
	w.Observe(popQuery(s, 13, 1), 1)
	if snap.Len() != n {
		t.Fatal("published snapshot mutated by a later observation")
	}
	if w.Snapshot().Len() != n+1 {
		t.Fatal("fresh snapshot missing the new observation")
	}
}

func TestControllerLifecycle(t *testing.T) {
	s := testSchema()
	rig := newRig(t, nil)
	ctx := context.Background()

	// No drift checks before the first published design.
	if fired := feed(rig, s, 0, 8); fired {
		t.Fatal("drift fired before any design was published")
	}
	if st := rig.ctrl.Status(); st.DriftChecks != 0 || st.HasIncumbent {
		t.Fatalf("pre-bootstrap status: %+v", st)
	}

	// Bootstrap: publishes unconditionally (nothing to regress against).
	res, err := rig.ctrl.Redesign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published || res.SafetyRejected || res.Design.Len() == 0 {
		t.Fatalf("bootstrap result: %+v", res)
	}
	if rig.ctrl.Incumbent().Fingerprint() != res.Design.Fingerprint() {
		t.Fatal("incumbent is not the bootstrap design")
	}
	// Same-population traffic: checks run (on rotations) but do not fire —
	// every rotation-boundary window holds whole template cycles, so its
	// normalized frequency vector matches the designed-for one exactly.
	if fired := feed(rig, s, 0, 16); fired {
		t.Fatal("drift fired on stationary traffic")
	}
	st := rig.ctrl.Status()
	if st.DriftChecks == 0 {
		t.Fatal("no drift checks ran across two rotations")
	}
	if st.DriftFires != 0 {
		t.Fatalf("drift fired %d times on stationary traffic", st.DriftFires)
	}

	// Population switch: the window leaves the designed-for neighborhood.
	if fired := feed(rig, s, 1, 24); !fired {
		t.Fatalf("drift never fired after a population switch (last delta %g, threshold %g)",
			rig.ctrl.Status().LastDelta, rig.ctrl.Status().LastThreshold)
	}

	// The fired re-design is seeded with the incumbent and safe by
	// construction: the loop starts from the better of {incumbent, nominal}
	// and only accepts improving moves.
	res2, err := rig.ctrl.Redesign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Published {
		t.Fatalf("seeded re-design not published: %+v", res2)
	}
	if !res2.Stats.IncumbentScored {
		t.Fatal("re-design did not score the incumbent")
	}
	if res2.Stats.FinalWorst > res2.Stats.IncumbentWorst {
		t.Fatalf("published design regressed: final %g vs incumbent %g",
			res2.Stats.FinalWorst, res2.Stats.IncumbentWorst)
	}

	// Re-anchoring: the monitor does not immediately re-fire on the very
	// traffic it just designed for.
	if fired := feed(rig, s, 1, 16); fired {
		t.Fatal("drift re-fired right after re-anchoring on the same population")
	}

	// A re-design of an unchanged window runs warm: the previous run's
	// store covers at least the shared nominal trajectory, so some unit
	// costs are served without touching the cost model. (The disjoint
	// population switch above necessarily ran with zero warm hits — no query
	// content was shared with the bootstrap run.)
	res3, err := rig.ctrl.Redesign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Published {
		t.Fatalf("repeat re-design not published: %+v", res3)
	}
	if res3.WarmHits == 0 {
		t.Fatal("repeat re-design served nothing from the previous run's store")
	}

	st = rig.ctrl.Status()
	if st.Redesigns != 3 || st.Published != 3 || st.SafetyRejects != 0 {
		t.Fatalf("final status: %+v", st)
	}
	if rig.met.OnlineRedesigns.Load() != 3 || rig.met.OnlinePublished.Load() != 3 {
		t.Fatalf("obs counters: redesigns=%d published=%d",
			rig.met.OnlineRedesigns.Load(), rig.met.OnlinePublished.Load())
	}
}

// TestWarmHitsAccounting pins where the warm-start tally lands: every run's
// Result.WarmHits equals its Stats.WarmHits, the metrics counter is their
// sum, and DisableWarmStart reports 0 throughout while publishing the same
// designs (the handoff only ever replaces cost-model calls).
func TestWarmHitsAccounting(t *testing.T) {
	s := testSchema()
	ctx := context.Background()
	var designs [2][]uint64
	for i, disable := range []bool{false, true} {
		rig := newRig(t, func(c *Config) { c.DisableWarmStart = disable })
		var sum uint64
		for _, pop := range []int{0, -1, 1, -1} {
			if pop >= 0 {
				feed(rig, s, pop, 16)
			}
			res, err := rig.ctrl.Redesign(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.WarmHits != res.WarmHits {
				t.Fatalf("disable=%v: Stats.WarmHits %d != WarmHits %d", disable, res.Stats.WarmHits, res.WarmHits)
			}
			if disable && res.WarmHits != 0 {
				t.Fatalf("DisableWarmStart run reported %d warm hits", res.WarmHits)
			}
			sum += res.WarmHits
			designs[i] = append(designs[i], res.Design.Fingerprint())
		}
		if got := rig.met.EvalWarmHits.Load(); got != sum {
			t.Fatalf("disable=%v: Metrics.EvalWarmHits = %d, want the runs' sum %d", disable, got, sum)
		}
		if !disable && sum == 0 {
			t.Fatal("warm replay of repeated windows served no warm hits")
		}
	}
	for k := range designs[0] {
		if designs[0][k] != designs[1][k] {
			t.Fatalf("run %d: warm design %x differs from cold %x", k, designs[0][k], designs[1][k])
		}
	}
}

func TestSafetyRuleKeepsIncumbentOnInjectedRegression(t *testing.T) {
	s := testSchema()
	rig := newRig(t, func(c *Config) { c.DisableSeed = true })
	ctx := context.Background()

	feed(rig, s, 0, 16)
	first, err := rig.ctrl.Redesign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Published || first.Design.Len() == 0 {
		t.Fatalf("bootstrap result: %+v", first)
	}

	// Inject the regression: from now on the nominal designer returns empty
	// designs, so every query pays the super-projection scan.
	rig.swap.set(badDesigner{})
	second, err := rig.ctrl.Redesign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.Published || !second.SafetyRejected {
		t.Fatalf("regressing candidate was published: %+v", second)
	}
	if second.CandidateWorst <= second.IncumbentWorst {
		t.Fatalf("injected candidate did not regress: cand %g vs inc %g",
			second.CandidateWorst, second.IncumbentWorst)
	}
	if rig.ctrl.Incumbent().Fingerprint() != first.Design.Fingerprint() {
		t.Fatal("incumbent changed despite the safety rejection")
	}
	if st := rig.ctrl.Status(); st.SafetyRejects != 1 || st.Published != 1 {
		t.Fatalf("status after rejection: %+v", st)
	}
	if rig.met.OnlineSafetyRejected.Load() != 1 {
		t.Fatalf("OnlineSafetyRejected = %d, want 1", rig.met.OnlineSafetyRejected.Load())
	}
}

func TestRedesignSerializedAndEmptyWindow(t *testing.T) {
	s := testSchema()
	ctx := context.Background()

	// Empty window: nothing to design for.
	rig := newRig(t, nil)
	if _, err := rig.ctrl.Redesign(ctx); err == nil {
		t.Fatal("re-design of an empty window succeeded")
	}

	// In-flight serialization: hold a re-design inside the cost model and
	// confirm a second call reports ErrRedesignInProgress.
	db := vertsim.Open(s)
	metric := distance.NewEuclidean(s.NumColumns())
	blocking := &blockingCost{inner: db, entered: make(chan struct{}), release: make(chan struct{})}
	cfg := Config{
		Designer: vertsim.NewDesigner(db, 256<<20),
		Cost:     blocking,
		Sampler:  sample.New(metric, sample.NewMutator(s)),
		Metric:   metric,
		Window:   WindowConfig{Buckets: 2, BucketSize: 8},
	}
	cfg.Options.Gamma = 0.004
	cfg.Options.Samples = 8
	cfg.Options.Iterations = 2
	cfg.Options.Seed = 7
	cfg.Options.Parallelism = 1
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ctrl.Observe(popQuery(s, i, 0), 1)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ctrl.Redesign(ctx)
		done <- err
	}()
	<-blocking.entered
	if _, err := ctrl.Redesign(ctx); !errors.Is(err, ErrRedesignInProgress) {
		t.Fatalf("concurrent re-design: err = %v, want ErrRedesignInProgress", err)
	}
	close(blocking.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The slot frees once the first run finishes.
	if _, err := ctrl.Redesign(ctx); err != nil {
		t.Fatalf("re-design after completion: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	s := testSchema()
	db := vertsim.Open(s)
	metric := distance.NewEuclidean(s.NumColumns())
	sampler := sample.New(metric, sample.NewMutator(s))
	nominal := vertsim.NewDesigner(db, 256<<20)

	good := Config{Designer: nominal, Cost: db, Sampler: sampler, Metric: metric}
	good.Options.Gamma = 0.004

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no designer", func(c *Config) { c.Designer = nil }},
		{"no cost", func(c *Config) { c.Cost = nil }},
		{"no metric", func(c *Config) { c.Metric = nil }},
		{"no sampler", func(c *Config) { c.Sampler = nil }},
		{"gamma zero", func(c *Config) { c.Options.Gamma = 0 }},
		{"negative samples", func(c *Config) { c.Options.Samples = -1 }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
	if _, err := New(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
