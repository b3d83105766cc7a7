package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/evalcache"
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

// OnlineResult is the ONLINE experiment's output. Three sub-experiments share
// the columns:
//
//   - A drift replay: months 0 and 1 of the set streamed through the online
//     controller twice — once with the warm-start unit-cost handoff, once
//     with DisableWarmStart — counting drift checks/fires and the
//     evaluation-layer cost-model calls each re-design spends.
//   - A repeat-window pair: the same window designed cold (writing its
//     unit costs to a store) then warm (reading that store). Value
//     transparency makes the two runs bit-identical while the warm one
//     repeats almost no model calls — the headline RepeatSpeedupGE5 gate.
//   - A safety injection: the nominal designer is swapped for one that
//     returns empty designs after the bootstrap; the safety acceptance rule
//     must keep the incumbent.
//
// Counter and equivalence columns are deterministic (they gate the
// BENCH_ONLINE.json baseline); wall-clock columns are informational.
type OnlineResult struct {
	Workload   string
	Samples    int
	Iterations int

	// Drift replay (gated; both replays agree on all of these by design —
	// SteadyMatch checks it).
	Observed    uint64 // accepted observations over the stream
	Evicted     uint64 // observations dropped by ring rotation
	DriftChecks uint64
	DriftFires  uint64
	DriftFired  bool   // at least one check fired (the replay exercised a re-design)
	Redesigns   uint64 // bootstrap + fired re-designs
	Published   uint64

	BootstrapCalls  uint64 // cost-model calls of the cold-cache bootstrap design
	SteadyWarmCalls uint64 // calls across post-bootstrap re-designs, warm handoff on
	SteadyColdCalls uint64 // same replay with DisableWarmStart
	SteadyWarmHits  uint64 // unit costs served from previous runs' stores (warm replay)
	SteadyMatch     bool   // warm and cold replays publish bit-identical designs throughout

	// Repeat-window pair (gated): the headline warm-re-design claim.
	RepeatColdCalls  uint64
	RepeatWarmCalls  uint64
	RepeatWarmHits   uint64
	RepeatMatch      bool // designs and traces bit-identical, warm vs cold
	RepeatSpeedupGE5 bool // RepeatColdCalls >= 5 * max(RepeatWarmCalls, 1)

	// Safety injection (gated).
	SafetyKeptIncumbent bool

	// Wall-clock (informational, never gated; repeat-window pair).
	ColdMs  float64
	WarmMs  float64
	Speedup float64
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

// OnlineBench runs the online-mode experiment behind the PR 10 drift-detect +
// warm-re-design loop. See OnlineResult for the three sub-experiments.
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

	// Sub-experiment 1: the drift replay, warm then cold. The controller's
	// drift decisions depend only on the stream and the metric, so both
	// replays bootstrap and fire at the same observations; only the
	// cost-model call counts may differ (that difference is the point).
	type replayOut struct {
		status    online.Status
		designs   []*designer.Design
		bootstrap uint64
		steady    uint64
		warmHits  uint64
	}
	replay := func(disableWarm bool) (*replayOut, error) {
		db := vertsim.Open(s)
		nominal := vertsim.NewDesigner(db, VerticaBudget)
		metric := distance.NewEuclidean(s.NumColumns())
		counting := &countingCost{inner: db}
		ctrl, err := online.New(online.Config{
			Designer:         nominal,
			Cost:             counting,
			Sampler:          sample.New(metric, sample.NewMutator(s)),
			Metric:           metric,
			Options:          opts,
			DriftFraction:    onlineDriftFraction,
			Window:           online.WindowConfig{Buckets: onlineBenchBuckets, BucketSize: onlineBenchBucketSize},
			DisableWarmStart: disableWarm,
		})
		if err != nil {
			return nil, err
		}
		out := &replayOut{}
		redesign := func() error {
			before := counting.calls.Load()
			r, err := ctrl.Redesign(context.Background())
			if err != nil {
				return err
			}
			spent := counting.calls.Load() - before
			if len(out.designs) == 0 {
				out.bootstrap = spent
			} else {
				out.steady += spent
			}
			out.warmHits += r.WarmHits
			out.designs = append(out.designs, r.Design)
			return nil
		}
		bootstrapped := false
		for _, month := range set.Months[:2] {
			for _, it := range month.Items {
				dec := ctrl.Observe(it.Q, it.Weight)
				switch {
				case !bootstrapped && dec.Rotated:
					if err := redesign(); err != nil {
						return nil, err
					}
					bootstrapped = true
				case dec.Fired:
					if err := redesign(); err != nil {
						return nil, err
					}
				}
			}
		}
		out.status = ctrl.Status()
		return out, nil
	}
	warmReplay, err := replay(false)
	if err != nil {
		return nil, fmt.Errorf("bench: online warm replay: %w", err)
	}
	coldReplay, err := replay(true)
	if err != nil {
		return nil, fmt.Errorf("bench: online cold replay: %w", err)
	}

	st := warmReplay.status
	res.Observed = st.Window.Observed
	res.Evicted = st.Window.Evicted
	res.DriftChecks = st.DriftChecks
	res.DriftFires = st.DriftFires
	res.DriftFired = st.DriftFires > 0
	res.Redesigns = st.Redesigns
	res.Published = st.Published
	res.BootstrapCalls = warmReplay.bootstrap
	res.SteadyWarmCalls = warmReplay.steady
	res.SteadyColdCalls = coldReplay.steady
	res.SteadyWarmHits = warmReplay.warmHits
	res.SteadyMatch = len(warmReplay.designs) == len(coldReplay.designs)
	if res.SteadyMatch {
		for i := range warmReplay.designs {
			if warmReplay.designs[i].Fingerprint() != coldReplay.designs[i].Fingerprint() ||
				warmReplay.designs[i].String() != coldReplay.designs[i].String() {
				res.SteadyMatch = false
				break
			}
		}
	}

	// Sub-experiment 2: the repeat-window pair. A re-design over an unchanged
	// window replays the cold run's exact trajectory, so every unit cost it
	// needs is in the cold run's store and the model goes quiet. Both runs
	// cost through the evalcache.Layer the online controller wires.
	type repeatOut struct {
		design   *designer.Design
		traces   []core.Trace
		calls    uint64
		warmHits uint64
		ms       float64
		store    *evalcache.Shared
	}
	repeat := func(read *evalcache.Shared) (*repeatOut, error) {
		db := vertsim.Open(s)
		nominal := vertsim.NewDesigner(db, VerticaBudget)
		metric := distance.NewEuclidean(s.NumColumns())
		counting := &countingCost{inner: db}
		layer := &evalcache.Layer{Inner: counting, Read: read, Write: evalcache.NewShared()}
		cg := core.New(nominal, layer, sample.New(metric, sample.NewMutator(s)), opts)
		start := time.Now()
		h := cg.Start(context.Background(), set.Months[0].Clone())
		d, traces, err := h.Await(context.Background())
		if err != nil {
			return nil, err
		}
		return &repeatOut{
			design: d, traces: traces,
			calls:    counting.calls.Load(),
			warmHits: layer.Hits(),
			ms:       float64(time.Since(start).Microseconds()) / 1000,
			store:    layer.Write,
		}, nil
	}
	cold, err := repeat(nil)
	if err != nil {
		return nil, fmt.Errorf("bench: online repeat cold run: %w", err)
	}
	warm, err := repeat(cold.store)
	if err != nil {
		return nil, fmt.Errorf("bench: online repeat warm run: %w", err)
	}
	res.RepeatColdCalls = cold.calls
	res.RepeatWarmCalls = warm.calls
	res.RepeatWarmHits = warm.warmHits
	res.ColdMs, res.WarmMs = cold.ms, warm.ms
	if res.WarmMs > 0 {
		res.Speedup = res.ColdMs / res.WarmMs
	}
	res.RepeatMatch = cold.design.Fingerprint() == warm.design.Fingerprint() &&
		cold.design.String() == warm.design.String() &&
		len(cold.traces) == len(warm.traces)
	if res.RepeatMatch {
		for i := range cold.traces {
			if cold.traces[i] != warm.traces[i] {
				res.RepeatMatch = false
				break
			}
		}
	}
	denom := res.RepeatWarmCalls
	if denom == 0 {
		denom = 1
	}
	res.RepeatSpeedupGE5 = res.RepeatColdCalls >= 5*denom

	// Sub-experiment 3: the safety injection. Bootstrap with the real
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
