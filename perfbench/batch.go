package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
	"cliffguard/internal/ingest"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// batch-1m shape. The loop uses the SCALE experiment's 16 samples and 5
// iterations; gamma and budget are the cliffguard CLI defaults.
// Parallelism 1 keeps every count exact: at 2 the evaluation-layer cost-model
// calls vary from run to run.
const (
	batchLines      = 1_000_000
	batchPairs      = 12 // month pairs (m, m+1) of R1's 13 months
	batchSamples    = 16
	batchIterations = 5
	batchGamma      = 0.002
	batchBudget     = int64(2560) << 20
	setupReps       = 5
)

// cycleLog streams a log of n lines by cycling one rendered month: whole
// copies of the block, then its first n%lines lines. Reads copy from memory,
// so the generator costs a memcpy and never a line render.
type cycleLog struct {
	block         []byte
	full, tail, i int
	pos           int
}

func newCycleLog(block []byte, lines, n int) *cycleLog {
	tail := 0
	for k := 0; k < n%lines; k++ {
		tail += bytes.IndexByte(block[tail:], '\n') + 1
	}
	return &cycleLog{block: block, full: n / lines, tail: tail}
}

func (c *cycleLog) Read(p []byte) (int, error) {
	for {
		end := len(c.block)
		if c.i == c.full {
			end = c.tail
		}
		if c.i > c.full || (c.i == c.full && c.pos >= end) {
			return 0, io.EOF
		}
		if c.pos < end {
			k := copy(p, c.block[c.pos:end])
			c.pos += k
			return k, nil
		}
		c.i++
		c.pos = 0
	}
}

// batchProbe gathers one pass's per-layer counters: the robust loop's, plus
// ingest's and the log generator's.
type batchProbe struct {
	loopProbe
	ingestNs, loggenNs, freezeNs int64
	stmts, templates             int
}

func newBatchProbe(l level) *batchProbe {
	p := &batchProbe{}
	p.init(l)
	return p
}

type batchRound struct {
	pair    int
	eng     engine.Engine
	folded  *workload.Workload
	design  *designer.Design
	stats   ingest.Stats
	latency time.Duration
}

type batch struct {
	in     *inputs
	blocks [][]byte
	lines  []int
}

func newBatch(in *inputs) *batch {
	b := &batch{in: in}
	for m := 0; m < batchPairs; m++ {
		b.blocks = append(b.blocks, in.monthLog(m))
		b.lines = append(b.lines, in.set.Months[m].Len())
	}
	return b
}

// round streams the 1M-line log of one month through ingest and designs it
// on a freshly opened rowstore engine: log in, design out.
func (b *batch) round(ctx context.Context, pair int, p *batchProbe) (*batchRound, error) {
	s := b.in.schema
	start := time.Now()
	eng, err := engine.Open(engine.Spec{Kind: engine.KindRowStore, Schema: s})
	if err != nil {
		return nil, err
	}
	folded, st, err := ingest.Reader(s, newCycleLog(b.blocks[pair], b.lines[pair], batchLines), ingest.Options{FirstID: 1})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	ingested := time.Now()

	opts := core.Options{
		Gamma: batchGamma, Samples: batchSamples, Iterations: batchIterations,
		Seed: b.in.seed, Parallelism: 1,
	}
	cost, nominal, metric := p.wrap(eng, eng.NominalDesigner(batchBudget), distance.NewEuclidean(s.NumColumns()), &opts)
	if p.costWrap != nil {
		p.costWrap.setTarget(folded, nil)
	}
	sampler := sample.New(metric, sample.NewMutator(s))
	sampler.Metrics = opts.Metrics
	h := core.New(nominal, cost, sampler, opts).Start(ctx, folded)
	d, _, err := h.Await(ctx)
	if err != nil {
		return nil, fmt.Errorf("design: %w", err)
	}
	end := time.Now()
	r := &batchRound{pair: pair, eng: eng, folded: folded, design: d, stats: st, latency: end.Sub(start)}

	p.unitDone(end.Sub(ingested), h.Stats().WarmHits)
	if p.level == traced {
		p.ingestNs += int64(ingested.Sub(start))
		p.stmts += st.Streamed
		p.templates += st.Templates
		id := p.spans.id()
		p.spans.add(p.spans.id(), id, "ingest", start, ingested)
		p.spans.add(p.spans.id(), id, "design", ingested, end)
		p.spans.add(id, 0, fmt.Sprintf("round pair=%d", pair), start, end)

		// Outside the timed round: the generator's own drain time and the
		// frozen-vector build on a clone (a clone starts with no cached
		// vectors, so the round's own design path is left untouched).
		t := time.Now()
		drain(newCycleLog(b.blocks[pair], b.lines[pair], batchLines))
		p.loggenNs += int64(time.Since(t))
		c := folded.Clone()
		t = time.Now()
		c.Frozen(workload.MaskSWGO)
		c.FrozenSeparate()
		p.freezeNs += int64(time.Since(t))
	}
	return r, nil
}

// drain reads r to the end with ingest's initial scanner buffer size.
func drain(r io.Reader) {
	buf := make([]byte, 64<<10)
	for {
		if _, err := r.Read(buf); err != nil {
			return
		}
	}
}

// check applies the batch output checks to one round.
func (r *batchRound) check(out *outcome) bool {
	switch {
	case r.stats.Streamed != batchLines:
		out.fail("pair %d: streamed %d statements, want %d", r.pair, r.stats.Streamed, batchLines)
	case r.stats.Skipped != 0:
		out.fail("pair %d: %d statements skipped", r.pair, r.stats.Skipped)
	case r.design == nil || r.design.Len() == 0:
		out.fail("pair %d: empty design", r.pair)
	case r.design.SizeBytes() > batchBudget:
		out.fail("pair %d: design takes %d bytes, budget %d", r.pair, r.design.SizeBytes(), batchBudget)
	default:
		return true
	}
	return false
}

// batchPass runs whole cycles of rounds over the 12 month pairs, so every
// pair weighs the same in every run, until the deadline has passed (at least
// one cycle; a zero deadline runs exactly one).
type batchPass struct {
	rounds  []*batchRound
	designs [batchPairs]*designer.Design
	lat     []float64
	busy    time.Duration
}

func (b *batch) pass(ctx context.Context, out *outcome, p *batchProbe, deadline time.Time) (*batchPass, error) {
	bp := &batchPass{}
	for k := 0; k%batchPairs != 0 || k == 0 || time.Now().Before(deadline); k++ {
		pair := k % batchPairs
		out.attempted++
		r, err := b.round(ctx, pair, p)
		if err != nil {
			out.fail("pair %d: %v", pair, err)
			continue
		}
		bp.lat = append(bp.lat, ms(r.latency))
		bp.busy += r.latency
		if !r.check(out) {
			continue
		}
		if first := bp.designs[pair]; first == nil {
			bp.designs[pair] = r.design
		} else if first.Fingerprint() != r.design.Fingerprint() {
			out.fail("pair %d: design %x differs from the pair's first design %x", pair, r.design.Fingerprint(), first.Fingerprint())
		}
		bp.rounds = append(bp.rounds, r)
		// Keep only the last round's program objects alive.
		if n := len(bp.rounds); n > 1 {
			bp.rounds[n-2] = nil
		}
	}
	return bp, nil
}

// score rates each pair's design on the following month with a separate
// cost-model-only engine, so scoring warms nothing the rounds use.
func (b *batch) score(ctx context.Context, out *outcome, bp *batchPass) *nextWindow {
	nw := &nextWindow{}
	eng, err := engine.Open(engine.Spec{Kind: engine.KindRowStore, Schema: b.in.schema})
	if err != nil {
		out.fail("scoring engine: %v", err)
		return nw
	}
	for pair, d := range bp.designs {
		if d == nil {
			out.fail("pair %d never produced a design", pair)
			continue
		}
		if err := nw.score(ctx, eng, b.in.set.Months[pair+1], d); err != nil {
			out.fail("pair %d next window: %v", pair, err)
		}
	}
	return nw
}

func runBatch(cfg config, in *inputs) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{}
	out.env.Parallelism, out.env.Clients = 1, 1
	b := newBatch(in)

	if cfg.trace {
		ref := newBatchProbe(counted)
		rp, err := b.pass(ctx, out, ref, time.Time{})
		if err != nil {
			return nil, err
		}
		p := newBatchProbe(traced)
		before := memNow()
		tp, err := b.pass(ctx, out, p, time.Time{})
		if err != nil {
			return nil, err
		}
		out.setMem(before, len(tp.lat))
		for pair := range rp.designs {
			if rp.designs[pair] != nil && tp.designs[pair] != nil &&
				rp.designs[pair].Fingerprint() != tp.designs[pair].Fingerprint() {
				out.fail("pair %d: traced design differs from the untraced one", pair)
			}
		}
		if ref.cost.calls.Load() != p.cost.calls.Load() {
			out.fail("traced pass made %d cost-model calls, untraced %d", p.cost.calls.Load(), ref.cost.calls.Load())
		}
		nw := b.score(ctx, out, tp)
		setBatchLayers(out, p, tp, rp, nw)
		out.spans = p.spans
		return out, nil
	}

	var setups []float64
	for k := 0; k < setupReps; k++ {
		out.attempted++
		r, err := b.round(ctx, 0, &batchProbe{})
		if err != nil {
			out.fail("setup: %v", err)
			continue
		}
		r.check(out)
		setups = append(setups, r.latency.Seconds())
	}
	bp, err := b.pass(ctx, out, &batchProbe{}, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))))
	if err != nil {
		return nil, err
	}
	if len(bp.rounds) == 0 {
		return nil, fmt.Errorf("no round passed its checks")
	}
	nw := b.score(ctx, out, bp)
	last := bp.rounds[len(bp.rounds)-1]
	throughput := float64(len(bp.lat)*batchLines) / bp.busy.Seconds()

	// The live heap holds what a CLI process still holds after designing:
	// the last engine, folded workload and design. The inputs go first.
	in.release()
	b.blocks, bp.rounds = nil, nil
	heap := liveHeapMB()
	runtime.KeepAlive(last)
	out.setEndToEnd(setups, bp.lat, throughput, nw.avgCost(), nw.maxCost(), heap)
	return out, nil
}

// setBatchLayers reports the traced pass's per-layer metrics. Layers
// batch-1m never enters (vertsim, online, serve) read zero.
func setBatchLayers(out *outcome, p *batchProbe, tp, rp *batchPass, nw *nextWindow) {
	p.setLayers(out, engine.KindRowStore)
	out.set("bench.units", float64(len(tp.lat)))
	out.set("bench.loggen_ms", float64(p.loggenNs)/1e6)
	out.set("ingest.ms", float64(p.ingestNs)/1e6)
	out.set("ingest.ns_per_stmt", float64(p.ingestNs)/math.Max(float64(p.stmts), 1))
	out.set("ingest.stmts", float64(p.stmts))
	out.set("ingest.templates", float64(p.templates))
	out.set("workload.freeze_ms", float64(p.freezeNs)/1e6)
	out.set("distance.calls", float64(p.dist.calls.Load()))
	out.set("distance.ms", p.dist.ms())
	out.set("quality.uncostable", nw.uncostable)
	out.set("trace.overhead_pct", overheadPct(tp.busy, rp.busy))
}

func overheadPct(tracedBusy, untracedBusy time.Duration) float64 {
	if untracedBusy <= 0 {
		return 0
	}
	return (tracedBusy.Seconds()/untracedBusy.Seconds() - 1) * 100
}
