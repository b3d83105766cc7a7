// Package serve is the serving layer: a declarative run API (RunSpec in,
// RunHandle out) and the multi-tenant cliffguardd HTTP server built on it.
//
// RunSpec is everything the library path assembles by hand — engine, metric,
// designer portfolio, loop options, workload — as one declarative value;
// StartRun turns it into an asynchronous RunHandle with status, cancellation,
// await, and access to the run's event stream, spans, and report. RunRequest
// is its wire form, the one loop specification: the server's run and online
// endpoints and the cliffguard CLI's batch and online modes all lower one
// through RunRequest.Spec and build through the same assembly, so an HTTP
// submission and a library call with the same spec produce bit-identical
// designs, traces, and event streams.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/obs"
	"cliffguard/internal/portfolio"
	"cliffguard/internal/report"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// DefaultBudgetBytes is the storage budget used when RunSpec.BudgetBytes is
// zero (2560 MiB, the paper's Vertica budget).
const DefaultBudgetBytes int64 = 2560 << 20

// RunSpec declares one robust-design run. Zero values mean defaults
// throughout, so the minimal spec is an engine plus a workload.
type RunSpec struct {
	// Engine selects which engine simulator to open. Ignored when Opened is
	// set (the server reuses its tenants' engines this way).
	Engine engine.Spec
	// Opened is an already-opened engine to run against instead of opening
	// Engine.
	Opened engine.Engine
	// BudgetBytes is the designers' storage budget (0 = DefaultBudgetBytes).
	BudgetBytes int64
	// Metric names the workload distance: "euclidean" (default) or
	// "separate".
	Metric string
	// Designers lists the portfolio raced on every design call: "advisor"
	// (the engine's nominal designer), "autoadmin", "ilp". The first entry
	// fills the robust loop's nominal slot; the rest become
	// Options.Portfolio. Empty means ["advisor"].
	Designers []string
	// Options configure the loop (Gamma, Samples, Seed, Parallelism, ...).
	// Observer/Metrics set here are honored in addition to the handle's own
	// recorder; Portfolio must stay empty — designers are named by Designers.
	Options core.Options
	// Workload is the design target. StartRun snapshots nothing: the caller
	// must not mutate it while the run executes (the server clones per run).
	Workload *workload.Workload

	// Shared, when set, layers the cross-tenant unit-cost memo under the
	// engine's cost model for the loop's neighborhood evaluations through an
	// evalcache.Layer over it (designers keep the raw engine; values are
	// identical either way, so designs stay bit-identical). The server
	// installs its process-wide memo here, for batch runs and online
	// re-designs alike.
	Shared *evalcache.Shared

	// Telemetry context, set by the server. All three ride only the span
	// side-channel, logs, and metric labels — never the canonical event
	// stream, so runs stay bit-identical with or without them.
	//
	// Tenant labels the run's shared-memo hits/misses in the metrics
	// registry, added once when the run ends, and cuts the span stream's
	// metrics record down to the tenant's own labeled series; RequestID
	// stamps every span record with the originating HTTP request; a
	// non-zero EnqueuedAt makes StartRun open the span stream with an
	// obs.SpanQueueWait span (admission to worker pickup).
	Tenant     string
	RequestID  string
	EnqueuedAt time.Time

	// tenantSeries, set by the server, runs an update of the tenant's
	// labeled series unless the tenant has been deleted (nil: always runs
	// it), so a run ending after its tenant is gone cannot re-create them.
	tenantSeries func(update func())
}

// resolveMetric maps a metric name to the distance metric.
func resolveMetric(name string, numColumns int) (distance.Metric, error) {
	switch strings.TrimSpace(strings.ToLower(name)) {
	case "", "euclidean":
		return distance.NewEuclidean(numColumns), nil
	case "separate":
		return distance.NewSeparate(numColumns), nil
	}
	return nil, fmt.Errorf("serve: unknown metric %q (want euclidean or separate)", name)
}

// designerNames resolves a designer list: names are trimmed, lower-cased and
// deduplicated in order, an empty list means ["advisor"], and an unknown name
// or a list that names none is an error.
func designerNames(names []string) ([]string, error) {
	if len(names) == 0 {
		return []string{"advisor"}, nil
	}
	var out []string
	for _, name := range names {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "" || slices.Contains(out, name) {
			continue
		}
		switch name {
		case "advisor", "autoadmin", "ilp":
			out = append(out, name)
		default:
			return nil, fmt.Errorf("serve: unknown designer %q (want advisor, autoadmin or ilp)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: %q names no designers", strings.Join(names, ","))
	}
	return out, nil
}

// resolveDesigners builds the named portfolio against the engine: "advisor"
// is the engine's nominal designer, and the candidate-pool designers draw
// their candidates from it.
func resolveDesigners(names []string, eng engine.Engine, budgetBytes int64) ([]designer.Designer, error) {
	names, err := designerNames(names)
	if err != nil {
		return nil, err
	}
	nominal := eng.NominalDesigner(budgetBytes)
	provider, _ := nominal.(portfolio.CandidateProvider)
	out := make([]designer.Designer, len(names))
	for i, name := range names {
		if name != "advisor" && provider == nil {
			return nil, fmt.Errorf("serve: designer %q needs a candidate-providing nominal designer", name)
		}
		switch name {
		case "advisor":
			out[i] = nominal
		case "autoadmin":
			out[i] = portfolio.NewAutoAdmin(eng, provider, budgetBytes)
		case "ilp":
			out[i] = portfolio.NewILPDesigner(eng, provider, budgetBytes)
		}
	}
	return out, nil
}

// validate is the one check of a loop specification: the metric and
// designer names and the core options. The /v1 endpoints reach it at
// admission, and every run and online controller through assemble.
func (spec RunSpec) validate() error {
	if len(spec.Options.Portfolio) != 0 {
		return fmt.Errorf("serve: set RunSpec.Designers, not Options.Portfolio")
	}
	if _, err := resolveMetric(spec.Metric, 1); err != nil {
		return err
	}
	if _, err := designerNames(spec.Designers); err != nil {
		return err
	}
	return spec.Options.Validate()
}

// assembly is a checked spec resolved against its engine: the robust loop's
// building blocks, shared by StartRun and NewOnline.
type assembly struct {
	nominal designer.Designer // the first named designer
	cost    designer.CostModel
	sampler *sample.Sampler
	metric  distance.Metric
	// opts are spec.Options with the other named designers as the
	// portfolio.
	opts core.Options
	// layer reads and writes spec.Shared under the engine (nil without it).
	layer *evalcache.Layer
}

// assemble checks the spec, opens its engine unless one is given, and builds
// the metric, the designers, the sampler and, over spec.Shared, the
// cross-tenant Layer the loop costs its neighborhoods through (the designers
// keep the raw engine; values are identical either way).
func assemble(spec RunSpec) (*assembly, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	eng := spec.Opened
	if eng == nil {
		var err error
		if eng, err = engine.Open(spec.Engine); err != nil {
			return nil, err
		}
	}
	budget := spec.BudgetBytes
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	metric, err := resolveMetric(spec.Metric, eng.Schema().NumColumns())
	if err != nil {
		return nil, err
	}
	members, err := resolveDesigners(spec.Designers, eng, budget)
	if err != nil {
		return nil, err
	}
	a := &assembly{nominal: members[0], cost: eng, metric: metric, opts: spec.Options}
	a.opts.Portfolio = members[1:]
	if spec.Shared != nil {
		a.layer = &evalcache.Layer{Inner: eng, Class: eng.Class(), Store: spec.Shared}
		a.cost = a.layer
	}
	a.sampler = sample.New(metric, sample.NewMutator(eng.Schema()))
	a.sampler.Metrics = spec.Options.Metrics
	return a, nil
}

// StartRun validates the spec, assembles the guard, and launches the run
// asynchronously. The returned handle owns a per-run event recorder and span
// buffer regardless of what the spec's Options attach, so every run's stream
// and report are retrievable afterwards.
//
// Cancelling ctx (or RunHandle.Cancel) aborts the run; its handle then
// reports StatusCancelled.
func StartRun(ctx context.Context, spec RunSpec) (*RunHandle, error) {
	if spec.Workload == nil || spec.Workload.Len() == 0 {
		return nil, fmt.Errorf("serve: spec has no workload")
	}
	a, err := assemble(spec)
	if err != nil {
		return nil, err
	}

	h := &RunHandle{rec: &obs.Recorder{}, spans: &bytes.Buffer{}, done: make(chan struct{}),
		tenant: spec.Tenant, tenantSeries: spec.tenantSeries, shared: a.layer}
	h.spanRec = obs.NewSpanRecorder(h.spans)
	if spec.RequestID != "" {
		h.spanRec.SetRequestID(spec.RequestID)
	}
	if !spec.EnqueuedAt.IsZero() {
		// The serving layer's admission wait, recorded before any event so
		// the span stream reads request -> queue -> run in order.
		h.spanRec.RecordSpan(obs.SpanQueueWait, -1, spec.EnqueuedAt, time.Now())
	}

	opts := a.opts.WithObserver(h.rec).WithObserver(h.spanRec)
	h.metrics = opts.Metrics
	guard := core.New(a.nominal, a.cost, a.sampler, opts)

	h.core = guard.Start(ctx, spec.Workload)
	go func() {
		<-h.core.Done()
		h.finish()
	}()
	return h, nil
}

// RunStatus is a RunHandle lifecycle state: "queued" (server admission only),
// then core's "running" / "done" / "failed" / "cancelled".
type RunStatus string

const (
	// StatusQueued: admitted by the server but not yet started (the worker
	// pool is saturated). Library-started runs never report it.
	StatusQueued RunStatus = "queued"
	// StatusRunning: the loop is executing.
	StatusRunning = RunStatus(core.RunRunning)
	// StatusDone: finished with a design.
	StatusDone = RunStatus(core.RunDone)
	// StatusFailed: aborted with a non-cancellation error.
	StatusFailed = RunStatus(core.RunFailed)
	// StatusCancelled: aborted by cancellation.
	StatusCancelled = RunStatus(core.RunCancelled)
)

// Terminal reports whether the status is an end state.
func (s RunStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// RunHandle is one asynchronous run: status, cancellation, await, and —
// unlike the bare core handle — the run's recorded event stream, span
// side-channel, and report. Handles are safe for concurrent use.
type RunHandle struct {
	core    *core.RunHandle
	rec     *obs.Recorder
	spans   *bytes.Buffer
	spanRec *obs.SpanRecorder
	metrics *obs.Metrics
	done    chan struct{}

	tenant       string
	tenantSeries func(update func())
	shared       *evalcache.Layer // nil without a cross-tenant memo
}

// finish closes out the run's instrumentation: it attributes the run's
// shared-memo hits and misses to its tenant, and the span recorder appends
// its metrics snapshot (only the tenant's own labeled series, for a run with
// a tenant) and flushes into the buffer. Runs exactly once, on the watcher
// goroutine.
func (h *RunHandle) finish() {
	var snap *obs.MetricsSnapshot
	switch {
	case h.metrics == nil:
	case h.tenant == "":
		s := h.metrics.Snapshot()
		snap = &s
	default:
		if h.shared != nil {
			attribute := func() {
				if n := h.shared.Hits(); n > 0 {
					h.metrics.SharedHitsByTenant.Add(h.tenant, n)
				}
				if n := h.shared.Misses(); n > 0 {
					h.metrics.SharedMissByTenant.Add(h.tenant, n)
				}
			}
			if h.tenantSeries == nil {
				attribute()
			} else {
				h.tenantSeries(attribute)
			}
		}
		s := h.metrics.TenantSnapshot(h.tenant)
		snap = &s
	}
	_ = h.spanRec.FinishWith(snap)
	close(h.done)
}

// Status returns the run's current state. A run reports a terminal state
// only once Done is closed: until its instrumentation is complete it stays
// StatusRunning, so a caller that sees "done" can read the spans at once.
func (h *RunHandle) Status() RunStatus {
	select {
	case <-h.done:
		return RunStatus(h.core.State())
	default:
		return StatusRunning
	}
}

// Cancel aborts the run. Idempotent; a no-op once finished.
func (h *RunHandle) Cancel() { h.core.Cancel() }

// Done returns a channel closed when the run has finished AND its
// instrumentation (span snapshot) is complete.
func (h *RunHandle) Done() <-chan struct{} { return h.done }

// Await blocks until the run finishes and returns its results; ctx bounds
// the wait only (it does not cancel the run).
func (h *RunHandle) Await(ctx context.Context) (*designer.Design, []core.Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-h.done:
		return h.core.Result()
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// Design returns the finished run's design (nil before completion).
func (h *RunHandle) Design() *designer.Design { d, _, _ := h.core.Result(); return d }

// Traces returns the finished run's per-iteration traces.
func (h *RunHandle) Traces() []core.Trace { _, t, _ := h.core.Result(); return t }

// Err returns the finished run's error (nil before completion or on success).
func (h *RunHandle) Err() error { _, _, err := h.core.Result(); return err }

// Events returns a snapshot of the run's event stream so far. Safe to call
// mid-run; after Done it is the complete, deterministic stream.
func (h *RunHandle) Events() []obs.Event { return h.rec.Events() }

// EventsJSONL renders the recorded events as a canonical JSONL stream —
// header line plus one record per event, sequence numbers from 1, envelope
// timestamps pinned to zero. The output is a pure function of the events:
// byte-identical on every call and across processes.
func (h *RunHandle) EventsJSONL() ([]byte, error) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf).WithClock(nil)
	for _, ev := range h.Events() {
		sink.OnEvent(ev)
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SpansJSONL returns the run's wall-clock span side-channel as JSONL. Only
// complete after Done (the metrics snapshot is appended at finish).
func (h *RunHandle) SpansJSONL() []byte {
	select {
	case <-h.done:
	default:
		return nil
	}
	return h.spans.Bytes()
}

// Summary computes the run's deterministic report from the recorded events
// alone (no spans, so two runs of the same spec summarize identically).
func (h *RunHandle) Summary() (*report.Summary, error) {
	return report.Summarize(report.FromEvents(h.Events()))
}
