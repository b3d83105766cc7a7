package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// LabeledCounter is a monotonically increasing counter family keyed by a
// string label (e.g. portfolio wins per member designer). The zero value is
// ready to use; all methods are safe for concurrent use. Labels are expected
// to be low-cardinality (member names), so a mutex-guarded map suffices.
type LabeledCounter struct {
	mu sync.Mutex
	m  map[string]uint64
}

// Inc adds one to the label's counter.
func (c *LabeledCounter) Inc(label string) { c.Add(label, 1) }

// Add adds n to the label's counter.
func (c *LabeledCounter) Add(label string, n uint64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]uint64)
	}
	c.m[label] += n
	c.mu.Unlock()
}

// Load returns the label's current value (0 if never incremented).
func (c *LabeledCounter) Load(label string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[label]
}

// Snapshot copies the counter family. Never nil; the map is the caller's.
func (c *LabeledCounter) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Delete drops the label's counter, so the family no longer lists it; a
// later Add starts it again from zero.
func (c *LabeledCounter) Delete(label string) {
	c.mu.Lock()
	delete(c.m, label)
	c.mu.Unlock()
}

// only copies the label's counter alone; nil if the family lacks it.
func (c *LabeledCounter) only(label string) map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[label]; ok {
		return map[string]uint64{label: v}
	}
	return nil
}

// Labels returns the label set in sorted order (stable export output).
func (c *LabeledCounter) Labels() []string {
	c.mu.Lock()
	labels := make([]string, 0, len(c.m))
	for k := range c.m {
		labels = append(labels, k)
	}
	c.mu.Unlock()
	sort.Strings(labels)
	return labels
}

// LabeledHistogram is a latency-histogram family keyed by a string label,
// mirroring LabeledCounter (e.g. per-tenant queue-wait time). The zero value
// is ready to use; all methods are safe for concurrent use. Labels are
// expected to be low-cardinality (tenant IDs, route patterns) — the map is
// mutex-guarded and every label pins one Histogram until Delete drops it, so
// callers must never use unbounded request data (paths, query strings) as
// labels, and a label whose subject goes away (a deleted tenant) must be
// deleted with it.
type LabeledHistogram struct {
	mu sync.Mutex
	m  map[string]*Histogram
}

// Observe records one duration under the label.
func (h *LabeledHistogram) Observe(label string, d time.Duration) {
	h.get(label).Observe(d)
}

// get returns the label's histogram, creating it on first use. The returned
// histogram is shared and lock-free, so repeat observers may cache it.
func (h *LabeledHistogram) get(label string) *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = make(map[string]*Histogram)
	}
	hist, ok := h.m[label]
	if !ok {
		hist = &Histogram{}
		h.m[label] = hist
	}
	return hist
}

// Delete drops the label's histogram, so the family no longer lists it; a
// later Observe starts it again empty.
func (h *LabeledHistogram) Delete(label string) {
	h.mu.Lock()
	delete(h.m, label)
	h.mu.Unlock()
}

// Labels returns the label set in sorted order (stable export output).
func (h *LabeledHistogram) Labels() []string {
	h.mu.Lock()
	labels := make([]string, 0, len(h.m))
	for k := range h.m {
		labels = append(labels, k)
	}
	h.mu.Unlock()
	sort.Strings(labels)
	return labels
}

// Snapshot copies every label's histogram counters. Never nil; the map is
// the caller's.
func (h *LabeledHistogram) Snapshot() map[string]HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(h.m))
	for k, v := range h.m {
		out[k] = v.Snapshot()
	}
	return out
}

// only copies the label's histogram counters alone; nil if the family lacks
// it.
func (h *LabeledHistogram) only(label string) map[string]HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v, ok := h.m[label]; ok {
		return map[string]HistogramSnapshot{label: v.Snapshot()}
	}
	return nil
}

// Gauge is an atomic instantaneous value (e.g. a queue depth).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// CacheStats is a point-in-time snapshot of a memo cache: its hit and miss
// tallies and resident entries.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Metrics is the loop's atomic counter registry. All fields are safe for
// concurrent use; a nil *Metrics is the universal "instrumentation off"
// value — every emission point nil-checks before touching it. Use
// NewMetrics; the struct contains atomics and must not be copied.
type Metrics struct {
	// Sampler throughput (internal/sample).
	SamplerDraws         Counter // SampleAt invocations
	SamplerRetries       Counter // perturbation-set retries beyond the first try
	SamplerFailures      Counter // draws that found no perturbation set
	SamplerFastPath      Counter // draws landed by the closed-form solve (verification skipped)
	SamplerSlowPath      Counter // draws landed by build-and-verify (grow/bisect fallback)
	SamplerDistanceEvals Counter // Metric.Distance evaluations spent inside the sampler

	// Cost-model and designer activity (the three engine simulators).
	CostModelCalls      Counter // what-if Cost() invocations
	DesignerInvocations Counter // black-box nominal-designer calls
	CandidatesGenerated Counter // candidate structures proposed by designers

	// Robust-loop progress (internal/core).
	NeighborsEvaluated  Counter // per-workload neighborhood evaluations
	EvalFastPath        Counter // workload evaluations that needed no cost-model call of their own (replayed, or every unit cost already filled)
	EvalSlowPath        Counter // workload evaluations holding a unit cost the pass computed first (every reference-pass evaluation)
	MovesAccepted       Counter
	MovesRejected       Counter
	IterationsCompleted Counter

	// Streaming ingestion (internal/ingest).
	IngestQueriesStreamed     Counter // statements parsed off the stream, pre-fold
	IngestTemplatesCompressed Counter // parsed statements folded into an existing weighted item
	IngestParseSkips          Counter // statements that failed to parse

	// Online re-design (internal/online) and its run-to-run unit-cost
	// handoff (an evalcache.Layer). WorkloadAddSkips counts Workload.Add
	// calls dropped for a non-positive weight — a window-eviction bug that
	// silently shrinks workloads shows up here instead of nowhere.
	EvalWarmHits         Counter // unit costs an online re-design served from the previous run's store
	WorkloadAddSkips     Counter // workload Add calls dropped for non-positive weight
	OnlineObserved       Counter // queries absorbed by online sliding windows
	OnlineEvicted        Counter // queries evicted by window-bucket rotation
	OnlineDriftChecks    Counter // delta(window, designed) drift evaluations
	OnlineDriftFires     Counter // drift checks exceeding the redesign threshold
	OnlineRedesigns      Counter // online re-design runs started
	OnlinePublished      Counter // candidate designs published as the new incumbent
	OnlineSafetyRejected Counter // candidates rejected by the safety acceptance rule

	// Designer-portfolio activity (internal/portfolio).
	PortfolioRuns           Counter        // portfolio Design invocations
	PortfolioMemberErrors   Counter        // member designers that returned an error
	PortfolioMemberTimeouts Counter        // member designers that exceeded their per-member timeout
	PortfolioWins           LabeledCounter // winning designs kept, per member name

	// Worker-pool occupancy (instantaneous).
	PoolQueueDepth  Gauge // neighborhood tasks submitted but not picked up
	PoolWorkersBusy Gauge // workers currently evaluating a workload

	// Per-phase latency histograms.
	SampleLatency    Histogram // one Gamma-neighborhood draw
	EvalLatency      Histogram // one workload's f(W, D) evaluation
	DesignLatency    Histogram // one nominal-designer invocation
	IterationLatency Histogram // one full robust-loop iteration

	// Service telemetry (internal/serve): the cliffguardd HTTP serving layer.
	// Label-cardinality policy: route labels come from the fixed /v1 route
	// table ("METHOD /pattern|status-class" composite keys; unmatched
	// requests collapse to "other"), tenant labels are the IDs of live
	// tenants (the server deletes a tenant's series with the tenant, so the
	// tenant families are bounded by the live tenant count, not by daemon
	// age), and rejection codes are the fixed admission error codes — never
	// raw paths, query strings, or request IDs.
	HTTPRequestLatency  LabeledHistogram // request latency per "METHOD /route|status-class"
	TenantRuns          LabeledCounter   // design runs admitted, per tenant
	TenantRunDuration   LabeledHistogram // worker-slot pickup to terminal state, per tenant
	TenantQueueWait     LabeledHistogram // admission to worker-slot pickup, per tenant
	AdmissionRejections LabeledCounter   // rejected submissions per stable code ("overloaded", "draining")
	SharedHitsByTenant  LabeledCounter   // shared unit-cost memo hits, per tenant
	SharedMissByTenant  LabeledCounter   // shared unit-cost memo misses, per tenant

	mu     sync.Mutex
	caches map[string]func() CacheStats
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// RegisterCache registers a memo cache's snapshot function under a name
// (e.g. "shared-unitcost"); the exporters pull its hit/miss and entry
// counts through it. Re-registering a name replaces the previous function.
func (m *Metrics) RegisterCache(name string, snapshot func() CacheStats) {
	if m == nil || snapshot == nil {
		return
	}
	m.mu.Lock()
	if m.caches == nil {
		m.caches = make(map[string]func() CacheStats)
	}
	m.caches[name] = snapshot
	m.mu.Unlock()
}

// CacheSnapshots returns the registered caches' stats, keyed by name.
func (m *Metrics) CacheSnapshots() map[string]CacheStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	fns := make(map[string]func() CacheStats, len(m.caches))
	for name, fn := range m.caches {
		fns[name] = fn
	}
	m.mu.Unlock()
	out := make(map[string]CacheStats, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// LatencyStats is one histogram's plain-data summary inside a
// MetricsSnapshot: count, mean, and interpolated quantiles, in milliseconds.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// MetricsSnapshot is a plain-data, JSON-serializable copy of the registry,
// written into the span side-channel by SpanRecorder.Finish and consumed by
// the run-analysis tooling (internal/report). Counters are read individually,
// so a snapshot taken mid-run can be off by in-flight updates.
type MetricsSnapshot struct {
	SamplerDraws         uint64 `json:"sampler_draws"`
	SamplerRetries       uint64 `json:"sampler_retries"`
	SamplerFailures      uint64 `json:"sampler_failures"`
	SamplerFastPath      uint64 `json:"sampler_fastpath"`
	SamplerSlowPath      uint64 `json:"sampler_slowpath"`
	SamplerDistanceEvals uint64 `json:"sampler_distance_evals"`
	CostModelCalls       uint64 `json:"costmodel_calls"`
	DesignerInvocations  uint64 `json:"designer_invocations"`
	CandidatesGenerated  uint64 `json:"designer_candidates"`
	NeighborsEvaluated   uint64 `json:"neighbors_evaluated"`
	EvalFastPath         uint64 `json:"eval_fastpath"`
	EvalSlowPath         uint64 `json:"eval_slowpath"`
	MovesAccepted        uint64 `json:"moves_accepted"`
	MovesRejected        uint64 `json:"moves_rejected"`
	IterationsCompleted  uint64 `json:"iterations_completed"`

	// Ingestion families. Zero (and omitted) for runs that never stream a
	// workload, so pre-existing snapshots keep their exact shape.
	IngestQueriesStreamed     uint64 `json:"ingest_queries_streamed,omitempty"`
	IngestTemplatesCompressed uint64 `json:"ingest_templates_compressed,omitempty"`
	IngestParseSkips          uint64 `json:"ingest_parse_skips,omitempty"`

	// Warm-start and online-mode families. Zero (and omitted) for offline
	// cold runs, so pre-existing snapshots keep their exact shape.
	EvalWarmHits         uint64 `json:"eval_warm_hits,omitempty"`
	WorkloadAddSkips     uint64 `json:"workload_add_skips,omitempty"`
	OnlineObserved       uint64 `json:"online_observed,omitempty"`
	OnlineEvicted        uint64 `json:"online_evicted,omitempty"`
	OnlineDriftChecks    uint64 `json:"online_drift_checks,omitempty"`
	OnlineDriftFires     uint64 `json:"online_drift_fires,omitempty"`
	OnlineRedesigns      uint64 `json:"online_redesigns,omitempty"`
	OnlinePublished      uint64 `json:"online_published,omitempty"`
	OnlineSafetyRejected uint64 `json:"online_safety_rejected,omitempty"`

	PortfolioRuns           uint64            `json:"portfolio_runs,omitempty"`
	PortfolioMemberErrors   uint64            `json:"portfolio_member_errors,omitempty"`
	PortfolioMemberTimeouts uint64            `json:"portfolio_member_timeouts,omitempty"`
	PortfolioWins           map[string]uint64 `json:"portfolio_wins,omitempty"`

	// Service-telemetry families. Empty (and omitted) for library runs; a
	// cliffguardd registry carries the server-wide serving-layer state.
	HTTPRequestLatency  map[string]LatencyStats `json:"http_request_latency,omitempty"`
	TenantRuns          map[string]uint64       `json:"tenant_runs,omitempty"`
	TenantRunDuration   map[string]LatencyStats `json:"tenant_run_duration,omitempty"`
	TenantQueueWait     map[string]LatencyStats `json:"tenant_queue_wait,omitempty"`
	AdmissionRejections map[string]uint64       `json:"admission_rejections,omitempty"`
	SharedHitsByTenant  map[string]uint64       `json:"shared_hits_by_tenant,omitempty"`
	SharedMissByTenant  map[string]uint64       `json:"shared_misses_by_tenant,omitempty"`

	Caches  map[string]CacheStats   `json:"caches,omitempty"`
	Latency map[string]LatencyStats `json:"latency,omitempty"`
}

// Snapshot copies the registry into a plain-data MetricsSnapshot. A nil
// registry yields the zero snapshot.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	snap := m.snapshot()
	snap.TenantRuns = m.TenantRuns.Snapshot()
	snap.TenantRunDuration = labeledLat(m.TenantRunDuration.Snapshot())
	snap.TenantQueueWait = labeledLat(m.TenantQueueWait.Snapshot())
	snap.SharedHitsByTenant = m.SharedHitsByTenant.Snapshot()
	snap.SharedMissByTenant = m.SharedMissByTenant.Snapshot()
	return snap
}

// TenantSnapshot is Snapshot with the per-tenant families (TenantRuns,
// TenantRunDuration, TenantQueueWait, SharedHitsByTenant,
// SharedMissByTenant) cut down to tenant's own series: what one tenant's
// run records, whatever the number of other tenants.
func (m *Metrics) TenantSnapshot(tenant string) MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	snap := m.snapshot()
	snap.TenantRuns = m.TenantRuns.only(tenant)
	snap.TenantRunDuration = labeledLat(m.TenantRunDuration.only(tenant))
	snap.TenantQueueWait = labeledLat(m.TenantQueueWait.only(tenant))
	snap.SharedHitsByTenant = m.SharedHitsByTenant.only(tenant)
	snap.SharedMissByTenant = m.SharedMissByTenant.only(tenant)
	return snap
}

// snapshot copies every family but the per-tenant ones.
func (m *Metrics) snapshot() MetricsSnapshot {
	lat := func(h *Histogram) LatencyStats { return h.Snapshot().Latency() }
	return MetricsSnapshot{
		SamplerDraws:         m.SamplerDraws.Load(),
		SamplerRetries:       m.SamplerRetries.Load(),
		SamplerFailures:      m.SamplerFailures.Load(),
		SamplerFastPath:      m.SamplerFastPath.Load(),
		SamplerSlowPath:      m.SamplerSlowPath.Load(),
		SamplerDistanceEvals: m.SamplerDistanceEvals.Load(),
		CostModelCalls:       m.CostModelCalls.Load(),
		DesignerInvocations:  m.DesignerInvocations.Load(),
		CandidatesGenerated:  m.CandidatesGenerated.Load(),
		NeighborsEvaluated:   m.NeighborsEvaluated.Load(),
		EvalFastPath:         m.EvalFastPath.Load(),
		EvalSlowPath:         m.EvalSlowPath.Load(),
		MovesAccepted:        m.MovesAccepted.Load(),
		MovesRejected:        m.MovesRejected.Load(),
		IterationsCompleted:  m.IterationsCompleted.Load(),

		IngestQueriesStreamed:     m.IngestQueriesStreamed.Load(),
		IngestTemplatesCompressed: m.IngestTemplatesCompressed.Load(),
		IngestParseSkips:          m.IngestParseSkips.Load(),

		EvalWarmHits:         m.EvalWarmHits.Load(),
		WorkloadAddSkips:     m.WorkloadAddSkips.Load(),
		OnlineObserved:       m.OnlineObserved.Load(),
		OnlineEvicted:        m.OnlineEvicted.Load(),
		OnlineDriftChecks:    m.OnlineDriftChecks.Load(),
		OnlineDriftFires:     m.OnlineDriftFires.Load(),
		OnlineRedesigns:      m.OnlineRedesigns.Load(),
		OnlinePublished:      m.OnlinePublished.Load(),
		OnlineSafetyRejected: m.OnlineSafetyRejected.Load(),

		PortfolioRuns:           m.PortfolioRuns.Load(),
		PortfolioMemberErrors:   m.PortfolioMemberErrors.Load(),
		PortfolioMemberTimeouts: m.PortfolioMemberTimeouts.Load(),
		PortfolioWins:           m.PortfolioWins.Snapshot(),

		HTTPRequestLatency:  labeledLat(m.HTTPRequestLatency.Snapshot()),
		AdmissionRejections: m.AdmissionRejections.Snapshot(),

		Caches: m.CacheSnapshots(),
		Latency: map[string]LatencyStats{
			"sample":    lat(&m.SampleLatency),
			"eval":      lat(&m.EvalLatency),
			"design":    lat(&m.DesignLatency),
			"iteration": lat(&m.IterationLatency),
		},
	}
}

// labeledLat summarizes a labeled histogram family's snapshot into
// per-label LatencyStats; nil when the family has no labels, so JSON omits
// it and library-run snapshots stay byte-identical to the pre-telemetry
// format.
func labeledLat(snap map[string]HistogramSnapshot) map[string]LatencyStats {
	if len(snap) == 0 {
		return nil
	}
	out := make(map[string]LatencyStats, len(snap))
	for label, s := range snap {
		out[label] = s.Latency()
	}
	return out
}
