package bench

import (
	"context"
	"fmt"
	"sync"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/online"
	"cliffguard/internal/sample"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// ONLINE experiment shape: a small window with frequent rotations so the
// month-0 -> month-1 transition produces drift checks (and fires) within a
// CI-sized replay, and a loop small enough that the bench runs several
// re-designs end to end.
const (
	onlineBenchSamples    = 12
	onlineBenchIterations = 4
	onlineBenchBuckets    = 4
	onlineBenchBucketSize = 48
	// onlineDriftFraction fires the monitor at half of Gamma: the window
	// must detectably move, but needn't fully leave the hardened
	// neighborhood for the experiment to exercise a re-design.
	onlineDriftFraction = 0.5
)

// OnlineResult is the ONLINE experiment's output. Two sub-experiments share
// the columns:
//
//   - A drift replay: months 0 and 1 of the set streamed through the online
//     controller, counting drift checks/fires and the evaluation-layer
//     cost-model calls each re-design spends.
//   - A safety injection: the nominal designer is swapped for one that
//     returns empty designs after the bootstrap; the safety acceptance rule
//     must keep the incumbent.
//
// Every column is deterministic and gates the BENCH_ONLINE.json baseline.
type OnlineResult struct {
	Workload   string
	Samples    int
	Iterations int

	// Drift replay.
	Observed    uint64 // accepted observations over the stream
	Evicted     uint64 // observations dropped by ring rotation
	DriftChecks uint64
	DriftFires  uint64
	DriftFired  bool   // at least one check fired (the replay exercised a re-design)
	Redesigns   uint64 // bootstrap + fired re-designs
	Published   uint64

	BootstrapCalls uint64 // cost-model calls of the bootstrap design
	SteadyCalls    uint64 // calls across the post-bootstrap re-designs

	// Safety injection.
	SafetyKeptIncumbent bool
}

// switchDesigner lets the safety sub-experiment swap the nominal designer
// between re-designs: a good one for the bootstrap, a degenerate one after.
type switchDesigner struct {
	mu    sync.Mutex
	inner designer.Designer
}

func (sd *switchDesigner) set(d designer.Designer) {
	sd.mu.Lock()
	sd.inner = d
	sd.mu.Unlock()
}

func (sd *switchDesigner) Name() string {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.inner.Name()
}

func (sd *switchDesigner) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	sd.mu.Lock()
	d := sd.inner
	sd.mu.Unlock()
	return d.Design(ctx, w)
}

// emptyDesigner returns structure-less designs: every query falls back to the
// super-projection, so its worst-case cost regresses vs any useful incumbent
// — the injected regression the safety rule must catch.
type emptyDesigner struct{}

func (emptyDesigner) Name() string { return "Empty" }
func (emptyDesigner) Design(context.Context, *workload.Workload) (*designer.Design, error) {
	return designer.NewDesign(), nil
}

// OnlineBench runs the online-mode experiment behind the drift-detect +
// re-design loop. See OnlineResult for the two sub-experiments.
func OnlineBench(set *wlgen.Set, gamma float64, seed int64) (*OnlineResult, error) {
	s := set.Config.Schema
	if len(set.Months) < 2 || set.Months[0].Len() == 0 || set.Months[1].Len() == 0 {
		return nil, fmt.Errorf("bench: online experiment needs two non-empty months")
	}

	res := &OnlineResult{
		Workload:   set.Config.Name,
		Samples:    onlineBenchSamples,
		Iterations: onlineBenchIterations,
	}
	opts := core.Options{
		Gamma:       gamma,
		Samples:     onlineBenchSamples,
		Iterations:  onlineBenchIterations,
		Seed:        seed,
		Parallelism: 1,
	}

	// Sub-experiment 1: the drift replay. The controller bootstraps on the
	// first window rotation and re-designs whenever a drift check fires.
	{
		db := vertsim.Open(s)
		nominal := vertsim.NewDesigner(db, VerticaBudget)
		metric := distance.NewEuclidean(s.NumColumns())
		counting := &countingCost{inner: db}
		ctrl, err := online.New(online.Config{
			Designer:      nominal,
			Cost:          counting,
			Sampler:       sample.New(metric, sample.NewMutator(s)),
			Metric:        metric,
			Options:       opts,
			DriftFraction: onlineDriftFraction,
			Window:        online.WindowConfig{Buckets: onlineBenchBuckets, BucketSize: onlineBenchBucketSize},
		})
		if err != nil {
			return nil, fmt.Errorf("bench: online replay controller: %w", err)
		}
		bootstrapped := false
		for _, month := range set.Months[:2] {
			for _, it := range month.Items {
				dec := ctrl.Observe(it.Q, it.Weight)
				if bootstrapped && !dec.Fired || !bootstrapped && !dec.Rotated {
					continue
				}
				before := counting.calls.Load()
				if _, err := ctrl.Redesign(context.Background()); err != nil {
					return nil, fmt.Errorf("bench: online replay: %w", err)
				}
				spent := counting.calls.Load() - before
				if bootstrapped {
					res.SteadyCalls += spent
				} else {
					res.BootstrapCalls = spent
				}
				bootstrapped = true
			}
		}
		st := ctrl.Status()
		res.Observed = st.Window.Observed
		res.Evicted = st.Window.Evicted
		res.DriftChecks = st.DriftChecks
		res.DriftFires = st.DriftFires
		res.DriftFired = st.DriftFires > 0
		res.Redesigns = st.Redesigns
		res.Published = st.Published
	}

	// Sub-experiment 2: the safety injection. Bootstrap with the real
	// designer, then swap in the degenerate one and force a re-design with
	// seeding off, so the controller must fall back to the explicit
	// worst-case comparison — and reject the regressing candidate.
	{
		db := vertsim.Open(s)
		good := vertsim.NewDesigner(db, VerticaBudget)
		metric := distance.NewEuclidean(s.NumColumns())
		sw := &switchDesigner{inner: good}
		ctrl, err := online.New(online.Config{
			Designer:    sw,
			Cost:        db,
			Sampler:     sample.New(metric, sample.NewMutator(s)),
			Metric:      metric,
			Options:     opts,
			Window:      online.WindowConfig{Buckets: onlineBenchBuckets, BucketSize: onlineBenchBucketSize},
			DisableSeed: true,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: online safety controller: %w", err)
		}
		for _, it := range set.Months[0].Items {
			ctrl.Observe(it.Q, it.Weight)
		}
		first, err := ctrl.Redesign(context.Background())
		if err != nil {
			return nil, fmt.Errorf("bench: online safety bootstrap: %w", err)
		}
		sw.set(emptyDesigner{})
		second, err := ctrl.Redesign(context.Background())
		if err != nil {
			return nil, fmt.Errorf("bench: online safety re-design: %w", err)
		}
		res.SafetyKeptIncumbent = first.Published && first.Design.Len() > 0 &&
			second.SafetyRejected && !second.Published &&
			ctrl.Incumbent().Fingerprint() == first.Design.Fingerprint()
	}
	return res, nil
}
