// Package cliffguard is a reproduction of "CliffGuard: A Principled
// Framework for Finding Robust Database Designs" (Mozafari, Goh, Yoon;
// SIGMOD 2015) as a self-contained Go library.
//
// CliffGuard finds physical database designs (projections, indices,
// materialized views) that remain effective when the future workload drifts
// away from the past one. It wraps an existing nominal designer — treated as
// a black box — in a robust-optimization loop derived from the
// Bertsimas-Nohadani-Teo framework: sample the Gamma-neighborhood of the
// target workload under a workload distance metric, find the worst-case
// neighbors of the current design, merge them into the designer's input,
// and keep re-designs that improve the worst case.
//
// The package is a facade over the internal implementation:
//
//   - Schema/Query/Workload model the database and its SQL workload
//     (internal/schema, internal/workload, internal/sqlparse).
//   - Vertica-style (sorted projections) and row-store (indices + matviews)
//     engine simulators provide cost models, executors and nominal designers
//     (internal/vertsim, internal/rowsim).
//   - Guard is the CliffGuard algorithm itself (internal/core), configured
//     by Options — most importantly the robustness knob Gamma.
//   - The distance metrics of the paper (delta_euclidean and variants) live
//     in internal/distance and are exposed through NewEuclidean and friends.
//
// Quickstart:
//
//	s := cliffguard.Warehouse(1)              // a star-schema warehouse
//	eng, err := cliffguard.OpenEngine(cliffguard.EngineSpec{Kind: cliffguard.EngineVertica, Schema: s})
//	nominal := eng.NominalDesigner(512 << 20) // the engine's own designer
//	guard, err := cliffguard.New(nominal, eng, s, cliffguard.Options{Gamma: 0.002})
//	design, err := guard.Design(ctx, w)       // w: *cliffguard.Workload
//
// The loop is observable: attach an Observer (a JSONL event sink, a terminal
// ProgressReporter, or your own) and a Metrics registry through Options, and
// expose the registry over HTTP with ServeMetrics. See the "Observability"
// section of DESIGN.md for the event taxonomy and metric names.
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// full system inventory and experiment index.
package cliffguard

import (
	"context"
	"io"

	"cliffguard/internal/aqesim"
	"cliffguard/internal/core"
	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/portfolio"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/sqlparse"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// Core model types, re-exported from the internal packages.
type (
	// Schema is a relational schema with globally numbered columns.
	Schema = schema.Schema
	// TableDef declares one table when building a schema with NewSchema.
	TableDef = schema.TableDef
	// ColumnDef declares one column of a TableDef.
	ColumnDef = schema.ColumnDef
	// ColumnType enumerates column value types.
	ColumnType = schema.ColumnType

	// Query is one workload query: clause column sets plus execution spec.
	Query = workload.Query
	// Workload is a weighted multiset of queries.
	Workload = workload.Workload
	// ClauseMask selects which query clauses define a template (the Figure
	// 11 distance-function ablation varies it; MaskSWGO is the default).
	ClauseMask = workload.ClauseMask
	// FrozenVector is a workload's cached sorted template-frequency vector:
	// the distance kernels' operand representation. Workload.Frozen returns
	// it; it is invalidated copy-on-write when the workload changes.
	FrozenVector = workload.FrozenVector

	// Structure is one physical design object (projection, index, matview).
	Structure = designer.Structure
	// Design is a set of structures.
	Design = designer.Design
	// Designer finds a design for a workload within a storage budget.
	Designer = designer.Designer
	// CostModel estimates per-query latency under a hypothetical design.
	CostModel = designer.CostModel

	// Options configure the CliffGuard loop; Gamma is the robustness knob.
	// Use Options.WithObserver / Options.WithMetrics to attach
	// instrumentation, Options.Validate to reject nonsensical values, and
	// Options.Normalized to clamp them to defaults instead. Parallelism
	// bounds the one worker pool that samples and scores the neighborhood;
	// designs, traces, and events are bit-identical at any value. Neighborhood
	// evaluation is indexed: the run numbers its neighborhood's queries once,
	// and each scored design keeps one unit-cost vector over them, so a design
	// scored again replays its vector instead of calling the cost model. It
	// is bit-identical to a full pass, which the tests and the EVAL benchmark
	// check.
	Options = core.Options
	// Guard is the CliffGuard robust designer (Algorithm 2 of the paper).
	Guard = core.CliffGuard
	// Trace records one iteration of the robust loop. Traces are derived
	// from the same event stream observers receive: a Trace is exactly an
	// EventIterationEnd.
	Trace = core.Trace

	// Metric measures workload dissimilarity.
	Metric = distance.Metric
	// QuadraticMetric is implemented by metrics whose distance is a
	// normalized quadratic form (delta_euclidean, delta_separate). Their
	// DistanceDisjoint decomposition is what enables the sampler's
	// closed-form landing fast path.
	QuadraticMetric = distance.Quadratic
	// Sampler draws Gamma-neighborhood workloads (Algorithm 4). New and
	// NewWithMetric build one internally; construct one directly (NewSampler)
	// to tune Parallelism. The landing follows the metric's type: a
	// QuadraticMetric lands in closed form, any other metric verifies and
	// bisects.
	Sampler = sample.Sampler

	// VerticaDB is the columnar (sorted-projection) engine simulator.
	VerticaDB = vertsim.DB
	// RowStoreDB is the row-store (index + materialized view) simulator.
	RowStoreDB = rowsim.DB
	// Projection is the columnar engine's design structure.
	Projection = vertsim.Projection
	// Index is the row store's secondary index structure.
	Index = rowsim.Index
	// MatView is the row store's materialized view structure.
	MatView = rowsim.MatView
	// ApproxDB is the approximate-query engine simulator, whose design
	// structures are stratified samples (the paper's third design problem).
	ApproxDB = aqesim.DB
	// Sample is the approximate engine's stratified-sample structure.
	Sample = aqesim.Sample

	// PortfolioDesigner races member designers concurrently on the same
	// workload and keeps the design that costs least on it, with a
	// deterministic tie-break; it implements Designer and can fill the
	// nominal slot of the robust loop (see Options.Portfolio for the
	// integrated form).
	PortfolioDesigner = portfolio.Portfolio
	// AutoAdminDesigner is the candidate-pruning greedy designer in the
	// classic AutoAdmin shape: per-query best-candidate selection, then a
	// bounded (k, m)-greedy merge over the union pool.
	AutoAdminDesigner = portfolio.AutoAdmin
	// ILPDesigner lowers structure selection to the exact branch-and-bound
	// solver; DesignExact surfaces whether the design is provably optimal.
	ILPDesigner = portfolio.ILPDesigner
	// ILPResult is ILPDesigner.DesignExact's output: the design plus the
	// optimality certificate (Exact) and the node count.
	ILPResult = portfolio.Result

	// Parser parses the supported SQL subset against a schema.
	Parser = sqlparse.Parser

	// Dataset is a physical instantiation of a schema for the executors.
	Dataset = datagen.Dataset

	// VerticaRow is one output row of the columnar executor.
	VerticaRow = vertsim.Row
	// VerticaResult is the columnar executor's output.
	VerticaResult = vertsim.Result
	// RowStoreRow is one output row of the row-store executor.
	RowStoreRow = rowsim.Row
	// RowStoreResult is the row-store executor's output.
	RowStoreResult = rowsim.Result
)

// Observability types, re-exported from internal/obs. Observers receive the
// loop's typed events; a Metrics registry aggregates atomic counters and
// latency histograms. Events carry no wall-clock time, so observation never
// perturbs the determinism of designs or traces.
type (
	// Observer receives the robust loop's events. OnEvent must be safe for
	// concurrent calls when Options.Parallelism != 1.
	Observer = obs.Observer
	// Event is the common interface of all loop events.
	Event = obs.Event
	// EventKind names an event type (the "type" field of JSONL records).
	EventKind = obs.Kind

	// EventIterationStart opens one robust-loop iteration.
	EventIterationStart = obs.IterationStart
	// EventIterationEnd closes one iteration; its fields are exactly Trace's.
	EventIterationEnd = obs.IterationEnd
	// EventNeighborhoodSampled reports the Gamma-neighborhood draw.
	EventNeighborhoodSampled = obs.NeighborhoodSampled
	// EventNeighborEvaluated reports one workload evaluation (emitted from
	// worker goroutines; ordered per iteration, unordered within a pass).
	EventNeighborEvaluated = obs.NeighborEvaluated
	// EventMoveAccepted reports an improving robust local move.
	EventMoveAccepted = obs.MoveAccepted
	// EventMoveRejected reports a non-improving robust local move.
	EventMoveRejected = obs.MoveRejected
	// EventDesignerInvoked reports one black-box nominal designer call.
	EventDesignerInvoked = obs.DesignerInvoked

	// Metrics is the atomic counter/gauge/histogram registry.
	Metrics = obs.Metrics
	// MetricsServer is a running /metrics + /vars HTTP endpoint.
	MetricsServer = obs.MetricsServer
	// JSONLSink is an Observer writing one JSON object per event.
	JSONLSink = obs.JSONLSink
	// ProgressReporter is an Observer rendering live terminal progress.
	ProgressReporter = obs.ProgressReporter
	// EventRecorder is an Observer buffering events in memory (tests,
	// post-run analysis).
	EventRecorder = obs.Recorder

	// SpanRecorder is an Observer deriving a wall-clock span side-channel
	// (run/iteration/phase spans, designer marks, a final metrics snapshot)
	// from the deterministic event stream. The spans go to their own JSONL
	// stream so the canonical events stay timestamp-free.
	SpanRecorder = obs.SpanRecorder
	// SpanRecord is one record of the span side-channel.
	SpanRecord = obs.SpanRecord
	// MetricsSnapshot is a plain-data copy of a Metrics registry, written
	// into the span stream by SpanRecorder.Finish.
	MetricsSnapshot = obs.MetricsSnapshot
	// LatencyStats summarizes one latency histogram inside a MetricsSnapshot.
	LatencyStats = obs.LatencyStats
	// Histogram is a fixed-bucket latency histogram (power-of-two µs buckets).
	Histogram = obs.Histogram
	// HistogramSnapshot is a plain-data copy of a Histogram.
	HistogramSnapshot = obs.HistogramSnapshot
	// LabeledCounter is a counter family keyed by a single label value.
	LabeledCounter = obs.LabeledCounter
	// LabeledHistogram is a Histogram family keyed by a single label value
	// (service telemetry: per-route latency, per-tenant queue wait).
	LabeledHistogram = obs.LabeledHistogram
	// Profiling is the live pprof state wired up by StartProfiling.
	Profiling = obs.Profiling
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewJSONLSink returns an observer writing one JSON line per event to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// DecodeEvents parses a JSONL event stream written by a JSONLSink back into
// typed events.
func DecodeEvents(r io.Reader) ([]obs.DecodedEvent, error) { return obs.DecodeJSONL(r) }

// NewSpanRecorder returns an observer writing the wall-clock span
// side-channel to w. Call Finish when the run ends to close open spans,
// append the metrics snapshot, and flush.
func NewSpanRecorder(w io.Writer) *SpanRecorder { return obs.NewSpanRecorder(w) }

// DecodeSpans parses a span side-channel stream written by a SpanRecorder.
func DecodeSpans(r io.Reader) ([]SpanRecord, error) { return obs.DecodeSpans(r) }

// StartProfiling wires the standard Go profilers behind CLI flags: CPU/heap
// profile files (either may be empty) and an optional net/http/pprof
// listener. Call Stop on the returned Profiling at shutdown.
func StartProfiling(cpuProfile, memProfile, pprofAddr string) (*Profiling, error) {
	return obs.StartProfiling(cpuProfile, memProfile, pprofAddr)
}

// NewProgressReporter returns an observer printing live progress to w
// (typically os.Stderr).
func NewProgressReporter(w io.Writer) *ProgressReporter { return obs.NewProgressReporter(w) }

// MultiObserver fans events out to several observers (nils are dropped).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// ServeMetrics starts an HTTP server on addr exposing the registry at
// /metrics (Prometheus text format) and /vars (MetricsSnapshot JSON). addr may
// be ":0"; the returned server's Addr field holds the bound address.
func ServeMetrics(addr string, m *Metrics) (*MetricsServer, error) { return obs.Serve(addr, m) }

// Column type constants.
const (
	Int64   = schema.Int64
	Float64 = schema.Float64
	String  = schema.String
)

// Line-search clamp bounds for the robust loop's step-size multiplier alpha,
// re-exported from internal/core. Options.InitialAlpha must lie in
// (AlphaMin, AlphaMax]; during a run the backtracking line search keeps alpha
// inside [AlphaMin, AlphaMax].
const (
	AlphaMin = core.AlphaMin
	AlphaMax = core.AlphaMax
)

// Clause mask constants; combine with bitwise OR.
const (
	MaskSelect  = workload.MaskSelect
	MaskWhere   = workload.MaskWhere
	MaskGroupBy = workload.MaskGroupBy
	MaskOrderBy = workload.MaskOrderBy
	// MaskSWGO is the paper's default template mask: all four clauses.
	MaskSWGO = workload.MaskSWGO
)

// NewSampler returns a Gamma-neighborhood sampler over the schema's default
// template mutator. The zero Sampler fields mean the paper defaults; set
// Parallelism to bound the worker pool (0 = GOMAXPROCS — results are
// bit-identical at any parallelism).
func NewSampler(m Metric, s *Schema) *Sampler {
	return sample.New(m, sample.NewMutator(s))
}

// NewSchema builds a schema from table definitions, assigning global column
// IDs in declaration order.
func NewSchema(defs []TableDef) (*Schema, error) { return schema.New(defs) }

// Warehouse returns the canonical star-schema warehouse used by the
// experiments (two fact tables plus dimensions; scale multiplies row counts).
func Warehouse(scale int64) *Schema { return datagen.Warehouse(scale) }

// GenerateData materializes deterministic synthetic data for a schema,
// capping physical rows per table at maxRows (0 = no cap).
func GenerateData(s *Schema, maxRows int, seed int64) *Dataset {
	return datagen.Generate(s, maxRows, seed)
}

// NewParser returns a SQL parser bound to the schema. A Parser reuses its
// scratch buffers from one Parse to the next and is not safe for concurrent
// use: give each goroutine its own. The queries it returns share nothing
// with it.
func NewParser(s *Schema) *Parser { return sqlparse.NewParser(s) }

// NewPortfolio returns a designer portfolio racing the members concurrently
// on each input workload; the design that costs least on it wins (ties
// break deterministically, so outputs are bit-identical at any
// parallelism). To race designers inside the robust loop, list the extra
// members in Options.Portfolio instead.
func NewPortfolio(cost CostModel, members ...Designer) *PortfolioDesigner {
	return portfolio.New(cost, members...)
}

// NewAutoAdminDesigner returns the AutoAdmin-style candidate-pruning greedy
// designer over the provider's candidate pool (any engine's nominal
// designer implements CandidateProvider).
func NewAutoAdminDesigner(cost CostModel, provider CandidateProvider, budgetBytes int64) *AutoAdminDesigner {
	return portfolio.NewAutoAdmin(cost, provider, budgetBytes)
}

// NewILPDesigner returns the ILP-exact designer over the provider's
// candidate pool. Design returns the best design found; DesignExact also
// reports whether it is provably optimal (the node budget held).
func NewILPDesigner(cost CostModel, provider CandidateProvider, budgetBytes int64) *ILPDesigner {
	return portfolio.NewILPDesigner(cost, provider, budgetBytes)
}

// NewEuclidean returns the paper's delta_euclidean workload distance for a
// database with the schema's column count (Section 5, Equation 9).
func NewEuclidean(s *Schema) Metric { return distance.NewEuclidean(s.NumColumns()) }

// NewSeparate returns the clause-separated distance variant delta_separate.
func NewSeparate(s *Schema) Metric { return distance.NewSeparate(s.NumColumns()) }

// NewLatencyMetric returns the latency-aware distance delta_latency
// (Appendix C) with penalty factor omega; baseline computes f(W, no design).
func NewLatencyMetric(s *Schema, omega float64, baseline func(*Workload) float64) Metric {
	return distance.NewLatency(s.NumColumns(), omega, baseline)
}

// New builds a CliffGuard robust designer around a nominal designer and its
// engine's cost model. The Gamma-neighborhood is sampled under
// delta_euclidean with the default template mutator over the schema.
//
// Nonsensical option values (negative Gamma, TopFraction above 1,
// LambdaSuccess at or below 1, ...) are rejected with an error; zero values
// still mean "use the paper defaults". Callers that want the historical
// silent clamping can pass opts.Normalized().
func New(nominal Designer, cost CostModel, s *Schema, opts Options) (*Guard, error) {
	return NewWithMetric(nominal, cost, s, distance.NewEuclidean(s.NumColumns()), opts)
}

// NewWithMetric is New with a caller-supplied distance metric (used by the
// Figure 11 distance-function ablation).
func NewWithMetric(nominal Designer, cost CostModel, s *Schema, m Metric, opts Options) (*Guard, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sampler := sample.New(m, sample.NewMutator(s))
	sampler.Metrics = opts.Metrics
	return core.New(nominal, cost, sampler, opts), nil
}

// WorkloadSet is a generated multi-month workload (query stream + windows).
type WorkloadSet = wlgen.Set

// R1Workload generates the R1-like drifting analytical workload: 13 monthly
// windows whose drift statistics are calibrated to the paper's Table 1.
func R1Workload(s *Schema, seed int64) (*WorkloadSet, error) {
	return wlgen.R1Config(s, seed).Generate()
}

// S1Workload generates the near-static synthetic workload S1.
func S1Workload(s *Schema, seed int64) (*WorkloadSet, error) {
	return wlgen.S1Config(s, seed).Generate()
}

// S2Workload generates the uniformly drifting synthetic workload S2.
func S2Workload(s *Schema, seed int64) (*WorkloadSet, error) {
	return wlgen.S2Config(s, seed).Generate()
}

// NewWorkload builds a workload from queries, each with weight 1.
func NewWorkload(queries ...*Query) *Workload { return workload.New(queries...) }

// WorkloadCost returns f(W, D): the weighted total latency of the workload
// under the design. A nil ctx is treated as context.Background().
func WorkloadCost(ctx context.Context, cm CostModel, w *Workload, d *Design) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return designer.WorkloadCost(ctx, cm, w, d)
}

// WorkloadStats summarizes a workload: volumes, template structure and
// column usage.
func WorkloadStats(w *Workload) workload.Stats { return workload.ComputeStats(w) }

// CandidateProvider is implemented by the engines' nominal designers: it
// exposes the candidate structures a workload induces.
type CandidateProvider = designer.CandidateProvider

// FilterDesignable returns the sub-workload of queries that some ideal
// (budget-unconstrained, single-query tailored) design speeds up by at least
// factor. The paper's evaluation keeps only such queries — 515 of R1's 15.5K
// parseable queries at factor 3 (Section 6.4). A nil ctx is treated as
// context.Background(); cancellation makes the remaining queries filter as
// non-designable, truncating rather than erroring.
func FilterDesignable(ctx context.Context, cm CostModel, provider CandidateProvider, w *Workload, factor float64) *Workload {
	if ctx == nil {
		ctx = context.Background()
	}
	out := &Workload{}
	cache := make(map[string]bool)
	for _, it := range w.Items {
		key := it.Q.TemplateKey(workload.MaskSWGO)
		ok, seen := cache[key]
		if !seen {
			ok = designer.Designable(ctx, cm, provider, it.Q, factor)
			cache[key] = ok
		}
		if ok {
			out.Add(it.Q, it.Weight)
		}
	}
	return out
}
