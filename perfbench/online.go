package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
	"cliffguard/internal/online"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// online-drift shape: the ONLINE experiment's window and loop, Parallelism 1.
const (
	onlineSamples       = 12
	onlineIterations    = 4
	onlineBuckets       = 4
	onlineBucketSize    = 48
	onlineDriftFraction = 0.5
	onlineGamma         = 0.002
	onlineBudget        = int64(2560) << 20
	// onlineSetupEvery: a set-up bootstrap runs after every this many drift
	// fires of the replays, at the next month's start and with a loop seed
	// of its own. One bootstrap (a 48-query window) takes milliseconds, and
	// its work depends on the window and the seed, so the median needs many
	// varied units spread over the whole run to hold still.
	onlineSetupEvery = 4
)

// observation is one query of the replayed stream and the month it is from.
type observation struct {
	month  int
	q      *workload.Query
	weight float64
}

// onlineProbe gathers one replay's per-layer counters: the robust loop's,
// plus the drift monitor's.
type onlineProbe struct {
	loopProbe
	driftDist layerClock // distance calls of the drift monitor, inside Observe
	observeNs int64
}

func newOnlineProbe(l level) *onlineProbe {
	p := &onlineProbe{}
	p.init(l)
	p.driftDist.timed = l == traced
	return p
}

// replay is one controller's run over the stream: the bootstrap, then every
// drift-fired re-design.
type replay struct {
	ctrl      *online.Controller
	next      int // stream position after the bootstrap
	setup     time.Duration
	lat       []float64
	busy      time.Duration // wall time of the measured replay, observations and re-designs
	observed  int
	designs   []*designer.Design // bootstrap first, then each re-design's candidate
	published []publishedDesign
}

type publishedDesign struct {
	month  int
	design *designer.Design
}

type onlineDrift struct {
	in         *inputs
	stream     []observation
	monthStart []int // stream position of each month's first query
}

func newOnlineDrift(in *inputs) *onlineDrift {
	od := &onlineDrift{in: in}
	for m, w := range in.set.Months {
		od.monthStart = append(od.monthStart, len(od.stream))
		for _, it := range w.Items {
			od.stream = append(od.stream, observation{month: m, q: it.Q, weight: it.Weight})
		}
	}
	return od
}

// start builds a controller with loop seed seed on a fresh vertica engine
// and observes the stream from position from until the window first
// rotates, then runs the bootstrap re-design: construction to the first
// published design.
func (od *onlineDrift) start(ctx context.Context, p *onlineProbe, from int, seed int64) (*replay, error) {
	s := od.in.schema
	begin := time.Now()
	eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: s})
	if err != nil {
		return nil, err
	}
	metric := distance.NewEuclidean(s.NumColumns())
	cfg := online.Config{
		Options: core.Options{
			Gamma: onlineGamma, Samples: onlineSamples, Iterations: onlineIterations,
			Seed: seed, Parallelism: 1,
		},
		DriftFraction: onlineDriftFraction,
		Window:        online.WindowConfig{Buckets: onlineBuckets, BucketSize: onlineBucketSize},
	}
	cost, nominal, sampMetric := p.wrap(eng, eng.NominalDesigner(onlineBudget), metric, &cfg.Options)
	var driftMetric distance.Metric = metric
	if p.level == traced {
		driftMetric = wrapMetric(metric, &p.driftDist)
		// The controller passes its own Metrics and Observer to every run.
		cfg.Metrics, cfg.Observer = cfg.Options.Metrics, cfg.Options.Observer
		cfg.Options.Metrics, cfg.Options.Observer = nil, nil
	}
	sampler := sample.New(sampMetric, sample.NewMutator(s))
	sampler.Metrics = cfg.Metrics
	cfg.Designer, cfg.Cost, cfg.Sampler, cfg.Metric = nominal, cost, sampler, driftMetric
	ctrl, err := online.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &replay{ctrl: ctrl, next: from}
	for r.next < len(od.stream) {
		o := od.stream[r.next]
		r.next++
		if ctrl.Observe(o.q, o.weight).Rotated {
			break
		}
	}
	res, err := od.redesign(ctx, p, r)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	r.setup = time.Since(begin)
	r.lat = r.lat[:0] // the bootstrap is set-up, not a drift-fired unit
	if !res.Published {
		return nil, fmt.Errorf("bootstrap design was not published")
	}
	return r, nil
}

// bootstrap starts a controller as one attempted unit. A failure counts as
// a failed unit and returns nil.
func (od *onlineDrift) bootstrap(ctx context.Context, out *outcome, p *onlineProbe, from int, seed int64) *replay {
	out.attempted++
	r, err := od.start(ctx, p, from, seed)
	if err != nil {
		out.fail("bootstrap at observation %d, seed %d: %v", from, seed, err)
		return nil
	}
	return r
}

func (od *onlineDrift) redesign(ctx context.Context, p *onlineProbe, r *replay) (*online.Result, error) {
	if p.costWrap != nil {
		p.costWrap.setTarget(r.ctrl.Window().Snapshot(), r.ctrl.Incumbent())
	}
	t := time.Now()
	res, err := r.ctrl.Redesign(ctx)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	r.lat = append(r.lat, ms(end.Sub(t)))
	r.designs = append(r.designs, res.Design)
	p.unitDone(end.Sub(t), res.WarmHits)
	p.spans.add(p.spans.id(), 0, "redesign", t, end)
	return res, nil
}

// run replays the rest of the stream, re-designing synchronously on every
// drift fire. One replay is a fixed amount of work: its drift decisions,
// designs and counts are a pure function of the inputs. after, when set,
// runs after every drift fire, outside the replay's busy time.
func (od *onlineDrift) run(ctx context.Context, out *outcome, p *onlineProbe, r *replay, after func()) {
	begin := time.Now()
	var paused time.Duration
	for ; r.next < len(od.stream); r.next++ {
		o := od.stream[r.next]
		t := time.Now()
		dec := r.ctrl.Observe(o.q, o.weight)
		if p.level == traced {
			p.observeNs += int64(time.Since(t))
		}
		r.observed++
		if !dec.Fired {
			continue
		}
		out.attempted++
		res, err := od.redesign(ctx, p, r)
		if err != nil {
			out.fail("re-design at observation %d: %v", r.next, err)
			continue
		}
		switch {
		case res.SafetyRejected || !res.Published:
			out.fail("re-design at observation %d was not published (safety rejected: %v)", r.next, res.SafetyRejected)
		case res.Design == nil || res.Design.SizeBytes() > onlineBudget:
			out.fail("re-design at observation %d: design missing or over budget", r.next)
		default:
			r.published = append(r.published, publishedDesign{month: o.month, design: res.Design})
		}
		if after != nil {
			t := time.Now()
			after()
			paused += time.Since(t)
		}
	}
	r.busy = time.Since(begin) - paused
}

// score rates every published re-design on the month after the one it was
// made in (designs made during the last month have no following month).
func (od *onlineDrift) score(ctx context.Context, out *outcome, r *replay) *nextWindow {
	nw := &nextWindow{}
	eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: od.in.schema})
	if err != nil {
		out.fail("scoring engine: %v", err)
		return nw
	}
	for _, pd := range r.published {
		if pd.month+1 >= len(od.in.set.Months) {
			continue
		}
		if err := nw.score(ctx, eng, od.in.set.Months[pd.month+1], pd.design); err != nil {
			out.fail("next window of a month-%d design: %v", pd.month, err)
		}
	}
	return nw
}

func runOnline(cfg config, in *inputs) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{}
	out.env.Parallelism, out.env.Clients = 1, 1
	od := newOnlineDrift(in)

	if cfg.trace {
		ref := newOnlineProbe(counted)
		rr := od.bootstrap(ctx, out, ref, 0, in.seed)
		if rr == nil {
			return nil, errors.New("the reference replay did not bootstrap")
		}
		od.run(ctx, out, ref, rr, nil)
		p := newOnlineProbe(traced)
		before := memNow()
		tr := od.bootstrap(ctx, out, p, 0, in.seed)
		if tr == nil {
			return nil, errors.New("the traced replay did not bootstrap")
		}
		od.run(ctx, out, p, tr, nil)
		out.setMem(before, len(tr.lat))
		sameReplay(out, rr, tr, "traced")
		if ref.cost.calls.Load() != p.cost.calls.Load() {
			out.fail("traced replay made %d cost-model calls, untraced %d", p.cost.calls.Load(), ref.cost.calls.Load())
		}
		nw := od.score(ctx, out, tr)
		setOnlineLayers(out, p, tr, rr, nw)
		out.spans = p.spans
		return out, nil
	}

	// Set-up: controllers bootstrapped in turn at every month's start with
	// the loop seeds seed, seed+1, ..., interleaved with the replays.
	var setups []float64
	fires := 0
	setup := func() {
		if fires++; fires%onlineSetupEvery != 0 {
			return
		}
		k := fires/onlineSetupEvery - 1
		from := od.monthStart[k%len(od.monthStart)]
		if r := od.bootstrap(ctx, out, &onlineProbe{}, from, in.seed+int64(k)); r != nil {
			setups = append(setups, r.setup.Seconds())
		}
	}
	// Two controllers replay the whole stream: twice the units for the
	// timings, and a check that drift decisions and designs repeat.
	var reps []*replay
	for k := 0; k < 2; k++ {
		if r := od.bootstrap(ctx, out, &onlineProbe{}, 0, in.seed); r != nil {
			od.run(ctx, out, &onlineProbe{}, r, setup)
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		return nil, errors.New("no replay bootstrapped")
	}
	if len(reps) == 2 {
		sameReplay(out, reps[0], reps[1], "second")
	}
	nw := od.score(ctx, out, reps[0])
	var lat []float64
	var observed int
	var busy time.Duration
	for _, r := range reps {
		lat = append(lat, r.lat...)
		observed += r.observed
		busy += r.busy
	}
	throughput := float64(observed) / busy.Seconds()
	ctrl := reps[len(reps)-1].ctrl

	// The live heap holds the long-lived controller: its window, incumbent
	// and warm-start generation. The inputs go first.
	in.release()
	od.stream, reps = nil, nil
	heap := liveHeapMB()
	runtime.KeepAlive(ctrl)
	out.setEndToEnd(setups, lat, throughput, nw.avgCost(), nw.maxCost(), heap)
	return out, nil
}

// sameReplay requires a second replay of the stream to repeat the first:
// the same drift fires, re-designs and designs.
func sameReplay(out *outcome, a, b *replay, what string) {
	as, bs := a.ctrl.Status(), b.ctrl.Status()
	if as.DriftFires != bs.DriftFires || as.Redesigns != bs.Redesigns || as.Published != bs.Published {
		out.fail("%s replay fired %d/%d re-designs, the first %d/%d", what, bs.DriftFires, bs.Redesigns, as.DriftFires, as.Redesigns)
	}
	if len(a.designs) != len(b.designs) {
		out.fail("%s replay made %d designs, the first %d", what, len(b.designs), len(a.designs))
		return
	}
	for i := range a.designs {
		if a.designs[i].Fingerprint() != b.designs[i].Fingerprint() {
			out.fail("re-design %d: the %s replay's design differs from the first's", i, what)
			return
		}
	}
}

// setOnlineLayers reports the traced replay's per-layer metrics. Layers
// online-drift never enters (ingest, rowsim, serve) read zero.
func setOnlineLayers(out *outcome, p *onlineProbe, tr, rr *replay, nw *nextWindow) {
	p.setLayers(out, engine.KindVertica)
	st := tr.ctrl.Status()
	out.set("bench.units", float64(len(tr.lat)))
	out.set("online.observe_ms", float64(p.observeNs)/1e6)
	out.set("online.drift_checks", float64(st.DriftChecks))
	out.set("online.drift_fires", float64(st.DriftFires))
	out.set("online.redesigns", float64(st.Redesigns))
	out.set("online.published", float64(st.Published))
	out.set("online.safety_rejected", float64(st.SafetyRejects))
	out.set("distance.calls", float64(p.dist.calls.Load()+p.driftDist.calls.Load()))
	out.set("distance.ms", p.dist.ms()+p.driftDist.ms())
	out.set("quality.uncostable", nw.uncostable)
	out.set("trace.overhead_pct", overheadPct(sumMs(tr.lat), sumMs(rr.lat)))
}

func sumMs(xs []float64) time.Duration {
	var t float64
	for _, x := range xs {
		t += x
	}
	return time.Duration(t * 1e6)
}
