package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// stubDesigner returns the empty design; it lets tests drive the robust loop
// with a cost model of their choosing without a working nominal designer.
type stubDesigner struct{}

func (stubDesigner) Name() string { return "stub" }
func (stubDesigner) Design(context.Context, *workload.Workload) (*designer.Design, error) {
	return designer.NewDesign(), nil
}

// unsupportedCost rejects every query as outside its costable subset.
type unsupportedCost struct{}

func (unsupportedCost) Cost(context.Context, *workload.Query, *designer.Design) (float64, error) {
	return 0, designer.ErrUnsupported
}

// gatedCost wraps a cost model and signals the first Cost call, so a test can
// cancel a context that is provably mid-design.
type gatedCost struct {
	inner designer.CostModel
	once  sync.Once
	first chan struct{}
}

func (g *gatedCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	g.once.Do(func() { close(g.first) })
	return g.inner.Cost(ctx, q, d)
}

// TestParallelDeterminism is the tentpole's acceptance test: for a fixed
// seed, DesignWithTrace must produce bit-identical designs and traces at
// Parallelism 1, 4, and NumCPU.
func TestParallelDeterminism(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(11))
	w := testWorkload(s, rng, 12)

	run := func(parallelism int) (map[string]bool, []Trace) {
		cg, _ := newGuard(s, Options{
			Gamma: 0.003, Samples: 10, Iterations: 5, Seed: 77,
			Parallelism: parallelism,
		})
		d, traces, err := cg.DesignWithTrace(context.Background(), w)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		return d.Keys(), traces
	}

	refKeys, refTraces := run(1)
	if len(refTraces) == 0 {
		t.Fatal("reference run produced no trace")
	}
	for _, p := range []int{4, runtime.NumCPU()} {
		keys, traces := run(p)
		if len(keys) != len(refKeys) {
			t.Fatalf("parallelism=%d: %d structures, want %d", p, len(keys), len(refKeys))
		}
		for k := range refKeys {
			if !keys[k] {
				t.Fatalf("parallelism=%d: design missing structure %s", p, k)
			}
		}
		if len(traces) != len(refTraces) {
			t.Fatalf("parallelism=%d: %d traces, want %d", p, len(traces), len(refTraces))
		}
		for i := range traces {
			// Bit-identical floats: the index-ordered reduction guarantees the
			// exact same summation and comparison sequence at any worker count.
			if traces[i] != refTraces[i] {
				t.Fatalf("parallelism=%d: trace %d = %+v, want %+v", p, i, traces[i], refTraces[i])
			}
		}
	}
}

// TestUncostableNeighborhood is the regression test for the -Inf worst case:
// when no query in the whole neighborhood is costable, the loop must fail
// with ErrUncostableNeighborhood instead of silently returning the initial
// design.
func TestUncostableNeighborhood(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(12))
	w := testWorkload(s, rng, 6)

	metric := distance.NewEuclidean(s.NumColumns())
	sampler := sample.New(metric, sample.NewMutator(s))
	cg := New(stubDesigner{}, unsupportedCost{}, sampler, Options{
		Gamma: 0.003, Samples: 6, Iterations: 3, Seed: 12,
	})

	_, _, err := cg.DesignWithTrace(context.Background(), w)
	if !errors.Is(err, ErrUncostableNeighborhood) {
		t.Fatalf("err = %v, want ErrUncostableNeighborhood", err)
	}

	// Same through the worker pool's parallel path.
	cg.Opts.Parallelism = 4
	if _, _, err := cg.DesignWithTrace(context.Background(), w); !errors.Is(err, ErrUncostableNeighborhood) {
		t.Fatalf("parallel err = %v, want ErrUncostableNeighborhood", err)
	}
}

// TestNeighborhoodCosts checks the public evaluation engine: parallel results
// match sequential ones exactly, and uncostable workloads come back as NaN.
func TestNeighborhoodCosts(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(13))
	w := testWorkload(s, rng, 10)
	cg, _ := newGuard(s, Options{Gamma: 0.003, Samples: 12, Seed: 13})

	neighborhood, err := cg.Sampler.Neighborhood(rand.New(rand.NewSource(13)), w, 0.003, 12)
	if err != nil {
		t.Fatal(err)
	}
	neighborhood = append(neighborhood, w)
	d, err := cg.Nominal.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}

	cg.Opts.Parallelism = 1
	seq, err := cg.NeighborhoodCosts(context.Background(), neighborhood, d)
	if err != nil {
		t.Fatal(err)
	}
	cg.Opts.Parallelism = 8
	par, err := cg.NeighborhoodCosts(context.Background(), neighborhood, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(neighborhood) || len(par) != len(neighborhood) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(neighborhood))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cost[%d] differs: sequential %g, parallel %g", i, seq[i], par[i])
		}
		if seq[i] <= 0 || math.IsNaN(seq[i]) {
			t.Fatalf("cost[%d] = %g, want positive", i, seq[i])
		}
	}

	// An uncostable cost model yields NaN per workload, not an error.
	cg.Cost = unsupportedCost{}
	nan, err := cg.NeighborhoodCosts(context.Background(), neighborhood, d)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range nan {
		if !math.IsNaN(c) {
			t.Fatalf("cost[%d] = %g, want NaN", i, c)
		}
	}
}

// TestDesignCancellation cancels a context mid-design and requires
// DesignWithTrace to abort promptly with context.Canceled.
func TestDesignCancellation(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(14))
	w := testWorkload(s, rng, 12)
	cg, db := newGuard(s, Options{Gamma: 0.003, Samples: 12, Iterations: 8, Seed: 14, Parallelism: 4})
	gate := &gatedCost{inner: db, first: make(chan struct{})}
	cg.Cost = gate

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-gate.first
		cancel()
	}()

	start := time.Now()
	_, _, err := cg.DesignWithTrace(ctx, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s, want prompt return", elapsed)
	}
}

// TestMoveWorkloadDeterministic guards the order-slice iteration in
// MoveWorkload: repeated calls must produce bit-identical weights (the old
// map-range form let float summation order vary between runs).
func TestMoveWorkloadDeterministic(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(15))
	w0 := testWorkload(s, rng, 10)
	cg, _ := newGuard(s, Options{Gamma: 0.004, Samples: 10, Seed: 15})
	d, err := cg.Nominal.Design(context.Background(), w0)
	if err != nil {
		t.Fatal(err)
	}
	neighbors, err := cg.Sampler.Neighborhood(rng, w0, 0.004, 8)
	if err != nil {
		t.Fatal(err)
	}

	ref := cg.MoveWorkload(context.Background(), w0, neighbors, d, 1.5)
	for rep := 0; rep < 10; rep++ {
		got := cg.MoveWorkload(context.Background(), w0, neighbors, d, 1.5)
		if got.Len() != ref.Len() {
			t.Fatalf("rep %d: %d items, want %d", rep, got.Len(), ref.Len())
		}
		for i, it := range got.Items {
			if it.Q != ref.Items[i].Q || it.Weight != ref.Items[i].Weight {
				t.Fatalf("rep %d: item %d = (%v, %v), want (%v, %v)",
					rep, i, it.Q, it.Weight, ref.Items[i].Q, ref.Items[i].Weight)
			}
		}
	}
}

// TestWorkersResolution pins the Parallelism -> pool-size mapping.
func TestWorkersResolution(t *testing.T) {
	cg := &CliffGuard{}
	cg.Opts.Parallelism = 0
	if got := cg.workers(1000); got != runtime.NumCPU() {
		t.Errorf("default workers = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	cg.Opts.Parallelism = 4
	if got := cg.workers(2); got != 2 {
		t.Errorf("workers capped by task count: got %d, want 2", got)
	}
	if got := cg.workers(100); got != 4 {
		t.Errorf("workers = %d, want 4", got)
	}
	cg.Opts.Parallelism = -3
	if got := cg.workers(1000); got != runtime.NumCPU() {
		t.Errorf("negative parallelism: got %d, want NumCPU", got)
	}
}

// TestConcurrentRunsShareGuard: two runs on one CliffGuard at the same time
// must not race (each run samples with its own copy of the guard's sampler)
// and must each return the design and trace of a sequential run. Run it
// under -race.
func TestConcurrentRunsShareGuard(t *testing.T) {
	s := testSchema()
	w := testWorkload(s, rand.New(rand.NewSource(13)), 10)
	cg, _ := newGuard(s, Options{Gamma: 0.003, Samples: 8, Iterations: 3, Seed: 5, Parallelism: 2})

	refD, refTraces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		d      *designer.Design
		traces []Trace
		err    error
	}
	outs := make([]out, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, traces, err := cg.DesignWithTrace(context.Background(), w)
			outs[i] = out{d, traces, err}
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("run %d: %v", i, o.err)
		}
		if o.d.Fingerprint() != refD.Fingerprint() || o.d.String() != refD.String() {
			t.Fatalf("run %d: design %s, want %s", i, o.d, refD)
		}
		if len(o.traces) != len(refTraces) {
			t.Fatalf("run %d: %d traces, want %d", i, len(o.traces), len(refTraces))
		}
		for j := range refTraces {
			if o.traces[j] != refTraces[j] {
				t.Fatalf("run %d: trace %d = %+v, want %+v", i, j, o.traces[j], refTraces[j])
			}
		}
	}
	if cg.Sampler.Parallelism != 0 {
		t.Fatalf("run wrote the guard's sampler: Parallelism = %d", cg.Sampler.Parallelism)
	}
}
