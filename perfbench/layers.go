package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/portfolio"
	"cliffguard/internal/workload"
)

// span is one record of the benchmark's own trace: a round, a re-design, a
// job or an HTTP route, with the id of the span that caused it (0 = none).
// Times are microseconds since the log was opened.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced passes share the traced code path.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not ended.
func (l *spanLog) id() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(id, parent int, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: float64(start.Sub(l.t0)) / 1e3, End: float64(end.Sub(l.t0)) / 1e3,
	})
}

func (l *spanLog) writeTo(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerClock counts the calls into one layer and, when timed, their total
// busy time. Hot layers (the cost model, the distance kernel) get a count and
// a sum rather than a span per call.
type layerClock struct {
	timed bool
	calls atomic.Uint64
	ns    atomic.Int64
}

func (c *layerClock) done(start time.Time) {
	c.calls.Add(1)
	if c.timed {
		c.ns.Add(int64(time.Since(start)))
	}
}

func (c *layerClock) start() time.Time {
	if c.timed {
		return time.Now()
	}
	return time.Time{}
}

func (c *layerClock) ms() float64 { return float64(c.ns.Load()) / 1e6 }

// costModel counts (and in traced passes times) the what-if calls the robust
// loop makes. It wraps the cost model handed to core.New / online.New, so it
// sees evaluation-layer calls only; designers call their engine directly.
// With a target set, it also splits the calls by what they cost: queries
// outside the unit's target workload (the sampler's mutated queries), and
// target queries under the incumbent design the unit started from.
type costModel struct {
	inner     designer.CostModel
	clock     *layerClock
	split     *callSplit
	target    map[*workload.Query]bool
	incumbent uint64 // fingerprint; 0 = no incumbent
}

type callSplit struct{ sampled, incumbent atomic.Uint64 }

func (c *costModel) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if c.target != nil {
		switch {
		case !c.target[q]:
			c.split.sampled.Add(1)
		case c.incumbent != 0 && d.Fingerprint() == c.incumbent:
			c.split.incumbent.Add(1)
		}
	}
	t := c.clock.start()
	v, err := c.inner.Cost(ctx, q, d)
	c.clock.done(t)
	return v, err
}

// setTarget names the workload the next unit designs for and the design it
// starts from (nil: none). Call it between units only: the loop reads both
// from its own goroutine.
func (c *costModel) setTarget(w *workload.Workload, incumbent *designer.Design) {
	c.target = make(map[*workload.Query]bool, w.Len())
	for _, it := range w.Items {
		c.target[it.Q] = true
	}
	c.incumbent = 0
	if incumbent != nil {
		c.incumbent = incumbent.Fingerprint()
	}
}

// timedDesigner times the nominal designer's Design calls. around, when set,
// runs before and after each call (the traced pass uses it to attribute the
// engine memo's traffic to the designer).
type timedDesigner struct {
	inner  designer.Designer
	clock  *layerClock
	around func(before bool)
}

func (d *timedDesigner) Name() string { return d.inner.Name() }

func (d *timedDesigner) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	if d.around != nil {
		d.around(true)
		defer d.around(false)
	}
	t := d.clock.start()
	out, err := d.inner.Design(ctx, w)
	d.clock.done(t)
	return out, err
}

// providerDesigner keeps the candidate-provider interface the portfolio
// members type-assert on the nominal designer.
type providerDesigner struct {
	*timedDesigner
	p portfolio.CandidateProvider
}

func (d *providerDesigner) Candidates(w *workload.Workload) []designer.Structure {
	return d.p.Candidates(w)
}

func wrapDesigner(inner designer.Designer, clock *layerClock, around func(bool)) designer.Designer {
	td := &timedDesigner{inner: inner, clock: clock, around: around}
	if p, ok := inner.(portfolio.CandidateProvider); ok {
		return &providerDesigner{td, p}
	}
	return td
}

// timedMetric times the workload-distance kernel.
type timedMetric struct {
	inner distance.Metric
	clock *layerClock
}

func (m *timedMetric) Name() string { return m.inner.Name() }

func (m *timedMetric) Distance(w1, w2 *workload.Workload) float64 {
	t := m.clock.start()
	v := m.inner.Distance(w1, w2)
	m.clock.done(t)
	return v
}

// quadraticMetric keeps distance.Quadratic: the sampler lands draws in
// closed form only for a Quadratic metric, so a wrapper that hid it would
// change which code runs and every count downstream.
type quadraticMetric struct {
	*timedMetric
	q distance.Quadratic
}

func (m *quadraticMetric) DistanceDisjoint(w1, w2 *workload.Workload) (float64, bool) {
	t := m.clock.start()
	v, dj := m.q.DistanceDisjoint(w1, w2)
	m.clock.done(t)
	return v, dj
}

func wrapMetric(inner distance.Metric, clock *layerClock) distance.Metric {
	tm := &timedMetric{inner: inner, clock: clock}
	if q, ok := inner.(distance.Quadratic); ok {
		return &quadraticMetric{tm, q}
	}
	return tm
}

// cacheTally sums hit/miss deltas of a registered memo cache.
type cacheTally struct{ hits, misses uint64 }

func (t *cacheTally) add(after, before obs.CacheStats) {
	t.hits += after.Hits - before.Hits
	t.misses += after.Misses - before.Misses
}

// engineMemo attributes the engine memo's (costcache) traffic to the
// designer or to the evaluation layer. The robust loop runs at Parallelism
// 1, so designer calls and evaluation passes never overlap in time: whatever
// the memo counts between a designer call's start and end is the designer's.
type engineMemo struct {
	met      *obs.Metrics
	name     string // registered cache name: "vertsim" or "rowsim"
	mark     obs.CacheStats
	designer cacheTally
	total    cacheTally
	base     obs.CacheStats
}

func (e *engineMemo) reset(met *obs.Metrics, name string) {
	e.met, e.name = met, name
	e.base = met.CacheSnapshots()[name]
}

func (e *engineMemo) around(before bool) {
	now := e.met.CacheSnapshots()[e.name]
	if before {
		e.mark = now
		return
	}
	e.designer.add(now, e.mark)
}

// close folds the current engine's totals in; it is called before the next
// engine's reset and once at the end.
func (e *engineMemo) close() {
	if e.met == nil {
		return
	}
	e.total.add(e.met.CacheSnapshots()[e.name], e.base)
	e.met = nil
}

// probe levels: plain runs the program exactly as the CLI does; counted
// wraps only the loop's cost model in a call counter, the reference the
// traced pass is checked against; traced adds every wrapper and recorder.
type level int

const (
	plain level = iota
	counted
	traced
)

// loopProbe gathers the per-layer counters of the robust loops one pass of
// batch-1m or online-drift runs: the wrappers it hands the loop, the memo
// stats it reads after each unit, and the loop's own span stream.
type loopProbe struct {
	level    level
	met      *obs.Metrics
	spans    *spanLog
	rec      *obs.SpanRecorder
	recBuf   bytes.Buffer
	costWrap *costModel // the current engine's; nil at level plain
	cost     layerClock
	split    callSplit
	designer layerClock
	dist     layerClock // the sampler's distance calls, inside units
	memo     engineMemo
	evalc    cacheTally
	warmHits uint64
	designNs int64
}

func (p *loopProbe) init(l level) {
	p.level = l
	if l == traced {
		p.met = obs.NewMetrics()
		p.spans = newSpanLog()
		p.rec = obs.NewSpanRecorder(&p.recBuf)
		p.cost.timed, p.designer.timed, p.dist.timed = true, true, true
	}
}

// memoNames are the engines' registered costcache names.
var memoNames = map[string]string{engine.KindVertica: "vertsim", engine.KindRowStore: "rowsim"}

// wrap returns the cost model, nominal designer and sampler metric to hand
// to one engine's robust loop at the probe's level, and sets opts' registry
// and observer when traced.
func (p *loopProbe) wrap(eng engine.Engine, nominal designer.Designer, metric distance.Metric, opts *core.Options) (designer.CostModel, designer.Designer, distance.Metric) {
	var cost designer.CostModel = eng
	if p.level >= counted {
		p.costWrap = &costModel{inner: eng, clock: &p.cost, split: &p.split}
		cost = p.costWrap
	}
	if p.level == traced {
		p.memo.close()
		eng.Instrument(p.met)
		p.memo.reset(p.met, memoNames[eng.Kind()])
		nominal = wrapDesigner(nominal, &p.designer, p.memo.around)
		metric = wrapMetric(metric, &p.dist)
		*opts = opts.WithMetrics(p.met).WithObserver(p.rec)
	}
	return cost, nominal, metric
}

// unitDone folds one finished unit (a round or a re-design) in.
func (p *loopProbe) unitDone(d time.Duration, warmHits uint64) {
	if p.level != traced {
		return
	}
	p.designNs += int64(d)
	p.evalc.add(p.met.CacheSnapshots()["evalcache"], obs.CacheStats{})
	p.warmHits += warmHits
}

// setLayers reports the loop's layers; kind names the engine whose designer
// ran (the other engine's designer reads 0).
func (p *loopProbe) setLayers(out *outcome, kind string) {
	p.memo.close()
	out.set("designer."+kind+".calls", float64(p.designer.calls.Load()))
	out.set("designer."+kind+".ms", p.designer.ms())
	out.set("costmodel.calls", float64(p.cost.calls.Load()))
	out.set("costmodel.ms", p.cost.ms())
	out.set("costmodel.calls_sampled", float64(p.split.sampled.Load()))
	out.set("costmodel.calls_incumbent", float64(p.split.incumbent.Load()))
	out.set("costcache.hits", float64(p.memo.total.hits))
	out.set("costcache.misses", float64(p.memo.total.misses))
	out.set("costcache.eval_hits", float64(p.memo.total.hits-p.memo.designer.hits))
	out.set("costcache.eval_misses", float64(p.memo.total.misses-p.memo.designer.misses))
	out.set("evalcache.hits", float64(p.evalc.hits))
	out.set("evalcache.misses", float64(p.evalc.misses))
	out.set("evalcache.warm_hits", float64(p.warmHits))
	out.set("sample.draws", float64(p.met.Snapshot().SamplerDraws))
	designMs := float64(p.designNs) / 1e6
	out.set("core.design_ms", designMs)
	out.set("core.self_ms", designMs-p.designer.ms()-p.cost.ms()-p.dist.ms())
	phases := map[string]float64{}
	if err := p.rec.Finish(nil); err != nil {
		out.fail("span recorder: %v", err)
	} else if err := addPhases(phases, p.recBuf.Bytes()); err != nil {
		out.fail("decoding spans: %v", err)
	}
	out.setPhases(phases)
}

// addPhases sums the robust loop's evaluation-pass spans ("phase:initial",
// "phase:rank", "phase:candidate") of a span stream written by
// obs.SpanRecorder into ms, by phase.
func addPhases(ms map[string]float64, stream []byte) error {
	recs, err := obs.DecodeSpans(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Kind == obs.SpanKindSpan && strings.HasPrefix(r.Name, obs.SpanPhasePrefix) {
			ms[strings.TrimPrefix(r.Name, obs.SpanPhasePrefix)] += float64(r.DurUs) / 1e3
		}
	}
	return nil
}

func (o *outcome) setPhases(ms map[string]float64) {
	for _, ph := range []string{obs.PhaseInitial, obs.PhaseRank, obs.PhaseCandidate} {
		o.set("core.phase_ms."+ph, ms[ph])
	}
}

// nextWindow scores published designs on the following R1 month: the
// weighted mean and the max per-query model cost, averaged over scored
// units. A query the model cannot cost (designer.ErrUnsupported) adds its
// weight to uncostable and fails its unit, which is then left out of both
// averages: a mean over the costable queries only would drop when queries
// become uncostable, and no check would notice.
type nextWindow struct {
	units      int
	sumAvg     float64
	sumMax     float64
	uncostable float64
}

func (n *nextWindow) score(ctx context.Context, cm designer.CostModel, w *workload.Workload, d *designer.Design) error {
	var total, weight, worst float64
	uncostable := 0
	for _, it := range w.Items {
		c, err := cm.Cost(ctx, it.Q, d)
		if errors.Is(err, designer.ErrUnsupported) {
			n.uncostable += it.Weight
			uncostable++
			continue
		}
		if err != nil {
			return err
		}
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return fmt.Errorf("query %d costs %g", it.Q.ID, c)
		}
		total += it.Weight * c
		weight += it.Weight
		worst = math.Max(worst, c)
	}
	if uncostable > 0 {
		return fmt.Errorf("%d of %d queries cannot be costed", uncostable, w.Len())
	}
	if weight == 0 {
		return errors.New("the next window is empty")
	}
	n.units++
	n.sumAvg += total / weight
	n.sumMax += worst
	return nil
}

func (n *nextWindow) avgCost() float64 { return n.sumAvg / float64(max(n.units, 1)) }
func (n *nextWindow) maxCost() float64 { return n.sumMax / float64(max(n.units, 1)) }
