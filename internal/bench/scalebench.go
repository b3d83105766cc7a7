package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/ingest"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/sqlparse"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// SCALE experiment shape: a million-statement log streamed through the
// template-compressing ingestion, then a robust design of the folded
// workload at several shard counts. The log cycles the R1 first-month
// queries, so the distinct-template count — and with it every gated value —
// is a pure function of the workload seed.
const (
	scaleBenchLogLines   = 1_000_000
	scaleBenchSamples    = 16
	scaleBenchIterations = 5
)

// ScaleResult is the SCALE experiment's output. The counter and equivalence
// columns are deterministic (they gate the BENCH_SCALE.json baseline); the
// wall-clock and memory columns are informational.
type ScaleResult struct {
	Workload  string
	LogLines  int // statements streamed through ingestion
	BaseLines int // distinct source statements the log cycles

	// Deterministic values (gated).
	Streamed      int  // statements parsed (must equal LogLines)
	Skipped       int  // unparseable statements (must be 0)
	Templates     int  // folded weighted items resident after ingestion
	FrozenLen     int  // distinct template keys of the folded frequency vector
	FoldIdentical bool // folded FrozenVectors bit-identical to the expected weighted workload's
	CountersMatch bool // obs ingest_* counters agree with the ingestion stats
	Iterations    int  // robust-loop iterations actually run (all runs agree)

	PooledCostCalls uint64 // evaluation-layer cost-model calls, pooled evaluator at parallelism 1
	ShardCostCalls  uint64 // same, shard-fanout evaluator at 4 shards (private memos recost shared queries)

	Shard1Match bool // shards=1 designs+traces bit-identical to pooled p=1
	Shard2Match bool
	Shard4Match bool

	// Warm-shard satellite (informational: reported in the benchrunner Info
	// block, not gated, so the BENCH_SCALE baseline needn't change shape): a
	// second 4-shard run importing the pooled run's exported unit-cost
	// generation. The shard-private memos pre-seed from the generation on
	// first miss, so shared queries stop being re-costed once per shard.
	WarmShardCostCalls uint64 // cost-model calls, 4 shards with warm-start import
	WarmShardWarmHits  uint64 // unit costs served from the imported generation
	WarmShardMatch     bool   // warm 4-shard designs+traces bit-identical to pooled

	// Wall-clock and memory (informational, never gated).
	IngestMs    float64
	DesignMs    float64 // pooled reference run
	Compression float64 // LogLines / Templates
	HeapMB      float64 // runtime.MemStats.HeapInuse after ingestion, MiB
	SysMB       float64 // runtime.MemStats.Sys after ingestion, MiB
}

// logStream lazily emits n timestamped SQL statements ("RFC3339\tSQL\n"),
// cycling the base slice, so the million-line log is never materialized —
// the reader side of the O(distinct templates) memory claim. Each Read fills
// p, so the ingest timing is not spent in one Read call per line.
type logStream struct {
	base []string
	t0   time.Time
	n, i int
	buf  []byte
}

func (ls *logStream) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(ls.buf) == 0 {
			if ls.i >= ls.n {
				break
			}
			ts := ls.t0.Add(time.Duration(ls.i) * time.Second)
			ls.buf = ts.AppendFormat(ls.buf[:0], time.RFC3339)
			ls.buf = append(ls.buf, '\t')
			ls.buf = append(ls.buf, ls.base[ls.i%len(ls.base)]...)
			ls.buf = append(ls.buf, '\n')
			ls.i++
		}
		k := copy(p[n:], ls.buf)
		ls.buf = ls.buf[k:]
		n += k
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// ScaleBench runs the million-query-scale experiment: stream a
// scaleBenchLogLines-statement log (the set's first-month queries, cycled)
// through the template-compressing ingestion, check the folded workload's
// frequency vectors bit-match the expected weighted workload, then run the
// same fixed-seed robust design with the pooled evaluator (parallelism 1)
// and the shard-fanout evaluator at 1, 2, and 4 shards, requiring
// bit-identical designs and traces throughout.
func ScaleBench(set *wlgen.Set, gamma float64, seed int64) (*ScaleResult, error) {
	s := set.Config.Schema
	if len(set.Months) == 0 || set.Months[0].Len() == 0 {
		return nil, fmt.Errorf("bench: scale experiment needs a non-empty first month")
	}

	// The base statements: the first month's queries as SQL text (R1 is
	// generated with RoundTripSQL, so every query carries its rendered form).
	var base []string
	for _, it := range set.Months[0].Items {
		if it.Q.SQL == "" {
			return nil, fmt.Errorf("bench: query %d has no SQL text (set not round-tripped?)", it.Q.ID)
		}
		base = append(base, it.Q.SQL)
	}

	// Phase 1: streaming template-compressed ingestion of the cycled log.
	met := obs.NewMetrics()
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	start := time.Now()
	folded, st, err := ingest.Reader(s, &logStream{base: base, t0: t0, n: scaleBenchLogLines}, ingest.Options{
		FirstID: 1, Metrics: met,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: scale ingestion: %w", err)
	}
	ingestMs := float64(time.Since(start).Microseconds()) / 1000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res := &ScaleResult{
		Workload:  set.Config.Name,
		LogLines:  scaleBenchLogLines,
		BaseLines: len(base),
		Streamed:  st.Streamed,
		Skipped:   st.Skipped,
		Templates: folded.Len(),
		FrozenLen: folded.Frozen(workload.MaskSWGO).Len(),
		IngestMs:  ingestMs,
		HeapMB:    float64(ms.HeapInuse) / (1 << 20),
		SysMB:     float64(ms.Sys) / (1 << 20),
	}
	if res.Templates > 0 {
		res.Compression = float64(res.LogLines) / float64(res.Templates)
	}
	res.CountersMatch = met.IngestQueriesStreamed.Load() == uint64(st.Streamed) &&
		met.IngestTemplatesCompressed.Load() == uint64(st.Streamed-st.Templates) &&
		met.IngestParseSkips.Load() == uint64(st.Skipped)

	// The expected workload: each base statement parsed independently (no
	// folding) and weighted by its exact occurrence count in the cycled log
	// — position i appears LogLines/B times, plus one for the first
	// LogLines%B positions. Folding must be invisible to every
	// frequency-vector consumer, so the folded workload's frozen vectors
	// must be bit-identical to this one's even though the items are grouped
	// differently (integer weight sums are exact in float64 under any
	// grouping; the workload package's two-phase normalization divides once
	// per key).
	parser := sqlparse.NewParser(s)
	expected := &workload.Workload{}
	full, extra := scaleBenchLogLines/len(base), scaleBenchLogLines%len(base)
	for i, sql := range base {
		q, err := parser.ParseAt(sql, int64(i+1), t0.Add(time.Duration(i)*time.Second))
		if err != nil {
			return nil, fmt.Errorf("bench: scale expected workload: re-parsing base line %d: %w", i, err)
		}
		cnt := float64(full)
		if i < extra {
			cnt++
		}
		expected.Add(q, cnt)
	}
	res.FoldIdentical = frozenEqual(folded, expected)

	// Phase 2: the same robust design at pooled parallelism 1 (reference)
	// and shard counts 1, 2, 4. Designs and traces must be bit-identical.
	type runOut struct {
		design   *designer.Design
		traces   []core.Trace
		calls    uint64
		warmHits uint64
		ms       float64
		gen      *evalcache.Generation
	}
	run := func(shards int, warm *evalcache.Generation, export bool) (*runOut, error) {
		db := vertsim.Open(s)
		nominal := vertsim.NewDesigner(db, VerticaBudget)
		metric := distance.NewEuclidean(s.NumColumns())
		sampler := sample.New(metric, sample.NewMutator(s))
		counting := &countingCost{inner: db}
		cg := core.New(nominal, counting, sampler, core.Options{
			Gamma:            gamma,
			Samples:          scaleBenchSamples,
			Iterations:       scaleBenchIterations,
			Seed:             seed,
			Parallelism:      1,
			Shards:           shards,
			WarmStart:        warm,
			ExportGeneration: export,
		})
		target := folded.Clone()
		start := time.Now()
		h := cg.Start(context.Background(), target)
		d, traces, err := h.Await(context.Background())
		if err != nil {
			return nil, err
		}
		return &runOut{
			design: d, traces: traces,
			calls:    counting.calls.Load(),
			warmHits: h.Stats().WarmHits,
			ms:       float64(time.Since(start).Microseconds()) / 1000,
			gen:      h.Generation(),
		}, nil
	}
	pooled, err := run(0, nil, true)
	if err != nil {
		return nil, fmt.Errorf("bench: scale pooled run: %w", err)
	}
	res.Iterations = len(pooled.traces)
	res.PooledCostCalls = pooled.calls
	res.DesignMs = pooled.ms

	match := func(o *runOut) bool {
		if o.design.Fingerprint() != pooled.design.Fingerprint() ||
			o.design.String() != pooled.design.String() ||
			len(o.traces) != len(pooled.traces) {
			return false
		}
		for i := range o.traces {
			if o.traces[i] != pooled.traces[i] {
				return false
			}
		}
		return true
	}
	for _, sh := range []int{1, 2, 4} {
		o, err := run(sh, nil, false)
		if err != nil {
			return nil, fmt.Errorf("bench: scale run at %d shards: %w", sh, err)
		}
		switch sh {
		case 1:
			res.Shard1Match = match(o)
		case 2:
			res.Shard2Match = match(o)
		case 4:
			res.Shard4Match = match(o)
			res.ShardCostCalls = o.calls
		}
	}

	// Warm-shard pass: re-run the 4-shard configuration with the pooled run's
	// exported generation imported. Every unit cost the pooled run scored is
	// available to every shard's private memo by content hash, so the cold
	// run's per-shard re-costing of shared queries collapses to memo hits —
	// while the trajectory stays bit-identical (imported values are the exact
	// model outputs).
	warm, err := run(4, pooled.gen, false)
	if err != nil {
		return nil, fmt.Errorf("bench: scale warm 4-shard run: %w", err)
	}
	res.WarmShardCostCalls = warm.calls
	res.WarmShardWarmHits = warm.warmHits
	res.WarmShardMatch = match(warm)
	return res, nil
}

// frozenEqual compares the two workloads' frequency vectors bit-for-bit:
// the joint-clause vector (MaskSWGO), the WHERE-only vector, and the
// 4-tuple separate vector — keys, frequencies (exact float equality), and
// representative column sets.
func frozenEqual(a, b *workload.Workload) bool {
	for _, m := range []workload.ClauseMask{workload.MaskSWGO, workload.MaskWhere} {
		fa, fb := a.Frozen(m), b.Frozen(m)
		if fa.Len() != fb.Len() {
			return false
		}
		for i := range fa.Keys {
			if fa.Keys[i] != fb.Keys[i] || fa.Freqs[i] != fb.Freqs[i] || !fa.Sets[i].Equal(fb.Sets[i]) {
				return false
			}
		}
	}
	sa, sb := a.FrozenSeparate(), b.FrozenSeparate()
	if sa.Len() != sb.Len() {
		return false
	}
	for i := range sa.Keys {
		if sa.Keys[i] != sb.Keys[i] || sa.Freqs[i] != sb.Freqs[i] {
			return false
		}
		for c := range sa.Sets[i] {
			if !sa.Sets[i][c].Equal(sb.Sets[i][c]) {
				return false
			}
		}
	}
	return true
}
