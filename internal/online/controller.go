package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// ErrRedesignInProgress is returned by Redesign while a previous re-design is
// still running: online re-designs are serialized per controller, because
// each one competes against — and may replace — the same incumbent.
var ErrRedesignInProgress = errors.New("online: a re-design is already in progress")

// Config assembles a drift-triggered re-design controller. Designer, Cost,
// Metric, and Sampler are required; Options.Gamma must be > 0 (with Gamma = 0
// there is no neighborhood to drift out of and no robust loop to re-run).
type Config struct {
	// Designer, Cost, Sampler: the robust loop's building blocks, exactly as
	// handed to core.New.
	Designer designer.Designer
	Cost     designer.CostModel
	Sampler  *sample.Sampler
	// Metric measures drift: delta(W_window, W_designed) is computed with
	// the same workload distance the run's neighborhood is defined by, so
	// "drifted past the threshold" and "left the hardened neighborhood"
	// speak the same unit.
	Metric distance.Metric
	// Options configure each re-design run. Gamma must be > 0. The
	// controller itself sets InitialDesign per run (see DisableSeed); a
	// value set here is ignored.
	Options core.Options
	// DriftFraction scales the drift threshold: a check fires when
	// delta(window, designed) > DriftFraction * Gamma. Default 1.0 — fire
	// exactly when the window may have left the Gamma-neighborhood.
	DriftFraction float64
	// CheckEvery runs a drift check every CheckEvery accepted observations.
	// 0 (the default) checks only on bucket rotation — the window's natural
	// cadence.
	CheckEvery int
	// Window sizes the sliding accumulator.
	Window WindowConfig
	// DisableSeed stops the controller from seeding re-design runs with the
	// incumbent (Options.InitialDesign). The safety acceptance rule then
	// falls back to an explicit worst-case comparison on a deterministic
	// re-sample of the current window's neighborhood; with seeding on, the
	// rule holds by construction (the seeded loop starts from the incumbent
	// or better and only accepts improving moves).
	DisableSeed bool
	// Metrics/Observer instrument the window, the drift monitor, and every
	// re-design run. Either may be nil.
	Metrics  *obs.Metrics
	Observer obs.Observer
}

func (c Config) normalized() Config {
	if c.DriftFraction <= 0 {
		c.DriftFraction = 1.0
	}
	if c.CheckEvery < 0 {
		c.CheckEvery = 0
	}
	c.Window = c.Window.normalized()
	return c
}

// Decision reports what one Observe call did: whether the observation was
// accepted, whether a drift check ran, and whether it fired.
type Decision struct {
	Accepted bool
	Rotated  bool
	// Checked reports that a drift check ran; Delta and Threshold are then
	// its inputs, and Fired its verdict. No check runs before the first
	// published design (there is no baseline to drift from).
	Checked   bool
	Delta     float64
	Threshold float64
	Fired     bool
}

// Result is the outcome of one re-design run.
type Result struct {
	// Design is the candidate the run produced — published or not.
	Design *designer.Design
	// Traces are the run's per-iteration traces.
	Traces []core.Trace
	// Stats are the run's scalar outcomes (core.RunStats).
	Stats core.RunStats
	// Published reports that the candidate became the new incumbent.
	Published bool
	// SafetyRejected reports that the safety acceptance rule kept the old
	// incumbent: the candidate's worst-case neighborhood cost on the current
	// window regressed vs the incumbent's.
	SafetyRejected bool
	// IncumbentWorst and CandidateWorst are the worst-case costs the safety
	// rule compared (NaN when there was no incumbent to compare against).
	IncumbentWorst float64
	CandidateWorst float64
	// WarmHits is always 0, as Stats.WarmHits is; it stays while perfbench
	// reads it (ROADMAP item 13 retires both).
	WarmHits uint64
	// Target is the window snapshot the run designed for.
	Target *workload.Workload
}

// Status is a point-in-time controller summary.
type Status struct {
	HasIncumbent bool
	// LastDelta/LastThreshold are the most recent drift check's inputs
	// (zero before any check).
	LastDelta     float64
	LastThreshold float64
	DriftChecks   uint64
	DriftFires    uint64
	Redesigns     uint64
	Published     uint64
	SafetyRejects uint64
	Window        WindowStats
}

// Controller owns one tenant's online state: the sliding window, the
// incumbent design with the snapshot it was designed for, and the
// drift/safety counters.
// All methods are safe for concurrent use; Redesign calls are serialized
// (ErrRedesignInProgress).
type Controller struct {
	cfg    Config
	window *Window

	mu            sync.Mutex
	incumbent     *designer.Design
	designedAt    *workload.Workload // snapshot the incumbent was designed for
	lastDelta     float64
	lastThreshold float64
	lastResult    *Result
	redesigning   bool
	sinceCheck    int

	driftChecks   uint64
	driftFires    uint64
	redesigns     uint64
	published     uint64
	safetyRejects uint64
}

// New validates the config and returns a controller with an empty window.
func New(cfg Config) (*Controller, error) {
	if cfg.Designer == nil {
		return nil, errors.New("online: Config.Designer is required")
	}
	if cfg.Cost == nil {
		return nil, errors.New("online: Config.Cost is required")
	}
	if cfg.Metric == nil {
		return nil, errors.New("online: Config.Metric is required")
	}
	if cfg.Sampler == nil {
		return nil, errors.New("online: Config.Sampler is required")
	}
	if cfg.Options.Gamma <= 0 {
		return nil, fmt.Errorf("online: Options.Gamma = %g, must be > 0 (online mode guards a Gamma-neighborhood)", cfg.Options.Gamma)
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	return &Controller{
		cfg:    cfg,
		window: NewWindow(cfg.Window, cfg.Metrics),
	}, nil
}

// Window returns the controller's sliding window.
func (c *Controller) Window() *Window { return c.window }

// Incumbent returns the current published design (nil before the first
// successful re-design).
func (c *Controller) Incumbent() *designer.Design {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incumbent
}

// LastResult returns the most recent re-design outcome (nil before the first).
func (c *Controller) LastResult() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastResult
}

// Status returns a point-in-time summary.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		HasIncumbent:  c.incumbent != nil,
		LastDelta:     c.lastDelta,
		LastThreshold: c.lastThreshold,
		DriftChecks:   c.driftChecks,
		DriftFires:    c.driftFires,
		Redesigns:     c.redesigns,
		Published:     c.published,
		SafetyRejects: c.safetyRejects,
		Window:        c.window.Stats(),
	}
}

// Observe absorbs one query into the window and runs the drift monitor at
// its configured cadence. A Fired decision is a recommendation, not an
// action: the caller decides whether (and how asynchronously) to run
// Redesign, so servers can push re-designs through their own worker pools.
func (c *Controller) Observe(q *workload.Query, weight float64) Decision {
	accepted, rotated := c.window.Observe(q, weight)
	dec := Decision{Accepted: accepted, Rotated: rotated}
	if !accepted {
		return dec
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.designedAt == nil {
		return dec // nothing published yet: no baseline to drift from
	}
	due := rotated
	if c.cfg.CheckEvery > 0 {
		c.sinceCheck++
		due = c.sinceCheck >= c.cfg.CheckEvery
	}
	if !due {
		return dec
	}
	c.sinceCheck = 0

	dec.Checked = true
	dec.Delta = c.cfg.Metric.Distance(c.window.Snapshot(), c.designedAt)
	dec.Threshold = c.cfg.DriftFraction * c.cfg.Options.Gamma
	dec.Fired = dec.Delta > dec.Threshold
	c.lastDelta, c.lastThreshold = dec.Delta, dec.Threshold
	c.driftChecks++
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.OnlineDriftChecks.Inc()
	}
	if dec.Fired {
		c.driftFires++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.OnlineDriftFires.Inc()
		}
	}
	return dec
}

// Redesign runs the robust loop on the current window snapshot, applies the
// safety acceptance rule against the incumbent, and — on acceptance —
// publishes the candidate as the new incumbent. Whatever the verdict, the
// drift baseline is re-anchored to the snapshot just designed for (so a
// rejected candidate does not leave the monitor re-firing on every
// observation).
//
// The safety rule: never publish a design whose worst-case cost over the
// current window's Gamma-neighborhood regresses vs the incumbent's. When the
// run was seeded with the incumbent (the default), the rule holds by
// construction — the loop starts from the better of {incumbent, nominal} and
// only accepts strictly improving moves — and the run's own RunStats prove
// it. With DisableSeed (or an incumbent the run could not score), the
// controller re-samples the run's deterministic neighborhood and compares
// worst-case costs explicitly.
func (c *Controller) Redesign(ctx context.Context) (*Result, error) {
	c.mu.Lock()
	if c.redesigning {
		c.mu.Unlock()
		return nil, ErrRedesignInProgress
	}
	c.redesigning = true
	incumbent := c.incumbent
	opts := c.cfg.Options
	opts.Observer = obs.Multi(opts.Observer, c.cfg.Observer)
	opts.Metrics = c.cfg.Metrics
	opts.InitialDesign = nil
	if !c.cfg.DisableSeed && incumbent != nil {
		opts.InitialDesign = incumbent
	}
	c.redesigns++
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.OnlineRedesigns.Inc()
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.redesigning = false
		c.mu.Unlock()
	}()

	target := c.window.Snapshot()
	if target.Len() == 0 {
		return nil, errors.New("online: the window is empty, nothing to design for")
	}

	h := core.New(c.cfg.Designer, c.cfg.Cost, c.cfg.Sampler, opts).Start(ctx, target)
	d, traces, err := h.Await(ctx)
	if err != nil {
		return nil, err
	}
	stats := h.Stats()

	res := &Result{
		Design:         d,
		Traces:         traces,
		Stats:          stats,
		Target:         target,
		IncumbentWorst: math.NaN(),
		CandidateWorst: stats.FinalWorst,
	}
	switch {
	case incumbent == nil:
		// Bootstrap: nothing to regress against.
		res.Published = true
	case opts.InitialDesign != nil && stats.IncumbentScored:
		// Seeded run: the loop started from the better of {incumbent,
		// nominal} and only accepted strict improvements, so
		// FinalWorst <= IncumbentWorst by construction. The comparison is
		// kept as a defensive check rather than trusted blindly.
		res.IncumbentWorst = stats.IncumbentWorst
		res.Published = stats.FinalWorst <= stats.IncumbentWorst
		res.SafetyRejected = !res.Published
	default:
		// Unseeded (or unscorable-incumbent) run: compare worst cases on a
		// deterministic re-sample of the run's own neighborhood.
		incWorst, candWorst, cmpErr := c.compareWorst(ctx, opts, target, incumbent, d)
		if cmpErr != nil {
			return nil, cmpErr
		}
		res.IncumbentWorst, res.CandidateWorst = incWorst, candWorst
		publish := true
		if math.IsNaN(candWorst) {
			publish = false // candidate uncostable on the window: keep the incumbent
		} else if !math.IsNaN(incWorst) && candWorst > incWorst {
			publish = false
		}
		res.Published = publish
		res.SafetyRejected = !publish
	}

	c.mu.Lock()
	if res.Published {
		c.incumbent = d
		c.published++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.OnlinePublished.Inc()
		}
	} else {
		c.safetyRejects++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.OnlineSafetyRejected.Inc()
		}
	}
	// Re-anchor the drift baseline on the snapshot just designed for — even
	// on rejection: the monitor asks "has the workload moved since the last
	// re-design decision", not "since the last publish", or a rejected
	// candidate would leave it firing on every subsequent observation.
	c.designedAt = target
	c.sinceCheck = 0
	c.lastResult = res
	c.mu.Unlock()
	return res, nil
}

// compareWorst scores incumbent and candidate on a fresh deterministic
// sample of the run's neighborhood (same seed, gamma, and sample count as
// the run itself, target appended as the distance-0 member) and returns the
// worst-case costs. A design with no costable workload yields NaN.
func (c *Controller) compareWorst(ctx context.Context, opts core.Options, target *workload.Workload, incumbent, candidate *designer.Design) (incWorst, candWorst float64, err error) {
	norm := opts.Normalized()
	rng := rand.New(rand.NewSource(norm.Seed))
	neighborhood, err := c.cfg.Sampler.Neighborhood(rng, target, norm.Gamma, norm.Samples)
	if err != nil {
		return 0, 0, fmt.Errorf("online: re-sampling neighborhood for the safety check: %w", err)
	}
	neighborhood = append(neighborhood, target)
	cg := core.New(c.cfg.Designer, c.cfg.Cost, c.cfg.Sampler, opts)
	incWorst, err = worstCaseOver(ctx, cg, neighborhood, incumbent)
	if err != nil {
		return 0, 0, err
	}
	candWorst, err = worstCaseOver(ctx, cg, neighborhood, candidate)
	if err != nil {
		return 0, 0, err
	}
	return incWorst, candWorst, nil
}

// worstCaseOver is the max over NeighborhoodCosts, NaN-skipping; NaN when no
// workload is costable under d.
func worstCaseOver(ctx context.Context, cg *core.CliffGuard, neighborhood []*workload.Workload, d *designer.Design) (float64, error) {
	costs, err := cg.NeighborhoodCosts(ctx, neighborhood, d)
	if err != nil {
		return 0, err
	}
	worst, any := math.Inf(-1), false
	for _, v := range costs {
		if math.IsNaN(v) {
			continue
		}
		any = true
		if v > worst {
			worst = v
		}
	}
	if !any {
		return math.NaN(), nil
	}
	return worst, nil
}
