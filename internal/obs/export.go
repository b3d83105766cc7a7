package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (counters as *_total, gauges plain, latency histograms with
// cumulative le buckets in seconds, cache stats with a cache label).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	ew := &errWriter{w: w}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	// labeledCounter renders a counter family with one label per line;
	// empty families print nothing (labels only exist once incremented).
	labeledCounter := func(name, help, label string, c *LabeledCounter) {
		snap := c.Snapshot()
		if len(snap) == 0 {
			return
		}
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, l := range c.Labels() {
			fmt.Fprintf(ew, "%s{%s=%q} %d\n", name, label, l, snap[l])
		}
	}
	// histLines renders one labeled histogram series (cumulative le buckets
	// in seconds, sparse zero buckets elided, +Inf always present).
	histLines := func(name, labels string, s HistogramSnapshot) {
		cum := uint64(0)
		for i, b := range s.Buckets {
			cum += b
			if b == 0 && i != histBuckets-1 {
				continue // sparse output; the +Inf bucket always prints
			}
			le := float64(BucketUpperUs(i)) / 1e6
			fmt.Fprintf(ew, "%s_bucket{%s,le=%q} %d\n", name, labels, trimFloat(le), cum)
		}
		fmt.Fprintf(ew, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, s.Count)
		fmt.Fprintf(ew, "%s_sum{%s} %g\n", name, labels, float64(s.SumUs)/1e6)
		fmt.Fprintf(ew, "%s_count{%s} %d\n", name, labels, s.Count)
	}
	// labeledHist renders a histogram family keyed by one label.
	labeledHist := func(name, help, label string, lh *LabeledHistogram) {
		labels := lh.Labels()
		if len(labels) == 0 {
			return
		}
		snap := lh.Snapshot()
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, l := range labels {
			histLines(name, fmt.Sprintf("%s=%q", label, l), snap[l])
		}
	}

	counter("cliffguard_sampler_draws_total", "Gamma-neighborhood sample draws.", m.SamplerDraws.Load())
	counter("cliffguard_sampler_retries_total", "Perturbation-set retries beyond the first try.", m.SamplerRetries.Load())
	counter("cliffguard_sampler_failures_total", "Sample draws that found no perturbation set.", m.SamplerFailures.Load())
	counter("cliffguard_sampler_fastpath_total", "Draws landed by the closed-form solve.", m.SamplerFastPath.Load())
	counter("cliffguard_sampler_slowpath_total", "Draws landed by build-and-verify.", m.SamplerSlowPath.Load())
	counter("cliffguard_sampler_distance_evals_total", "Distance evaluations spent inside the sampler.", m.SamplerDistanceEvals.Load())
	counter("cliffguard_costmodel_calls_total", "What-if cost model invocations.", m.CostModelCalls.Load())
	counter("cliffguard_designer_invocations_total", "Black-box nominal designer calls.", m.DesignerInvocations.Load())
	counter("cliffguard_designer_candidates_total", "Candidate structures proposed by designers.", m.CandidatesGenerated.Load())
	counter("cliffguard_neighbors_evaluated_total", "Per-workload neighborhood evaluations.", m.NeighborsEvaluated.Load())
	counter("cliffguard_eval_fastpath_total", "Workload evaluations served entirely from the unit-cost memo.", m.EvalFastPath.Load())
	counter("cliffguard_eval_slowpath_total", "Workload evaluations that invoked the cost model.", m.EvalSlowPath.Load())
	counter("cliffguard_moves_accepted_total", "Improving robust local moves.", m.MovesAccepted.Load())
	counter("cliffguard_moves_rejected_total", "Non-improving robust local moves.", m.MovesRejected.Load())
	counter("cliffguard_iterations_completed_total", "Completed robust-loop iterations.", m.IterationsCompleted.Load())
	counter("cliffguard_ingest_queries_streamed_total", "Statements parsed off the ingestion stream, pre-fold.", m.IngestQueriesStreamed.Load())
	counter("cliffguard_ingest_templates_compressed_total", "Parsed statements folded into an existing weighted item.", m.IngestTemplatesCompressed.Load())
	counter("cliffguard_ingest_parse_skips_total", "Ingested statements that failed to parse.", m.IngestParseSkips.Load())
	counter("cliffguard_eval_warm_hits_total", "Unit costs online re-designs served from the previous run's store.", m.EvalWarmHits.Load())
	counter("cliffguard_workload_add_skips_total", "Workload Add calls dropped for non-positive weight.", m.WorkloadAddSkips.Load())
	counter("cliffguard_online_observed_total", "Queries absorbed by online sliding windows.", m.OnlineObserved.Load())
	counter("cliffguard_online_evicted_total", "Queries evicted by window-bucket rotation.", m.OnlineEvicted.Load())
	counter("cliffguard_online_drift_checks_total", "Drift evaluations delta(window, designed).", m.OnlineDriftChecks.Load())
	counter("cliffguard_online_drift_fires_total", "Drift checks exceeding the redesign threshold.", m.OnlineDriftFires.Load())
	counter("cliffguard_online_redesigns_total", "Online re-design runs started.", m.OnlineRedesigns.Load())
	counter("cliffguard_online_published_total", "Candidate designs published as the new incumbent.", m.OnlinePublished.Load())
	counter("cliffguard_online_safety_rejected_total", "Candidates rejected by the safety acceptance rule.", m.OnlineSafetyRejected.Load())
	counter("cliffguard_portfolio_runs_total", "Designer-portfolio invocations.", m.PortfolioRuns.Load())
	counter("cliffguard_portfolio_member_errors_total", "Portfolio members that returned an error.", m.PortfolioMemberErrors.Load())
	counter("cliffguard_portfolio_member_timeouts_total", "Portfolio members that exceeded their timeout.", m.PortfolioMemberTimeouts.Load())
	labeledCounter("cliffguard_portfolio_wins_total", "Winning designs kept, per member designer.", "member", &m.PortfolioWins)
	gauge("cliffguard_pool_queue_depth", "Neighborhood tasks submitted but not yet picked up.", m.PoolQueueDepth.Load())
	gauge("cliffguard_pool_workers_busy", "Workers currently evaluating a workload.", m.PoolWorkersBusy.Load())

	hist := func(phase string, h *Histogram) {
		histLines("cliffguard_phase_latency_seconds", fmt.Sprintf("phase=%q", phase), h.Snapshot())
	}
	fmt.Fprintf(ew, "# HELP cliffguard_phase_latency_seconds Per-phase latency of the robust loop.\n")
	fmt.Fprintf(ew, "# TYPE cliffguard_phase_latency_seconds histogram\n")
	hist("sample", &m.SampleLatency)
	hist("eval", &m.EvalLatency)
	hist("design", &m.DesignLatency)
	hist("iteration", &m.IterationLatency)

	// Estimated quantiles as a separate gauge family: the histogram family
	// above stays a pure Prometheus histogram, and servers that do not run
	// histogram_quantile still get summary lines.
	quant := func(phase string, h *Histogram) {
		s := h.Snapshot()
		if s.Count == 0 {
			return
		}
		for _, q := range [...]float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(ew, "cliffguard_phase_latency_quantile_seconds{phase=%q,quantile=%q} %g\n",
				phase, trimFloat(q), s.Quantile(q)/1e6)
		}
	}
	fmt.Fprintf(ew, "# HELP cliffguard_phase_latency_quantile_seconds Estimated phase-latency quantiles (interpolated from the power-of-two histogram).\n")
	fmt.Fprintf(ew, "# TYPE cliffguard_phase_latency_quantile_seconds gauge\n")
	quant("sample", &m.SampleLatency)
	quant("eval", &m.EvalLatency)
	quant("design", &m.DesignLatency)
	quant("iteration", &m.IterationLatency)

	// Service-telemetry families (the cliffguardd serving layer). The
	// request-latency family splits its composite "route|status-class" key
	// into separate route/status labels at export time.
	if labels := m.HTTPRequestLatency.Labels(); len(labels) > 0 {
		snap := m.HTTPRequestLatency.Snapshot()
		const name = "cliffguard_http_request_latency_seconds"
		fmt.Fprintf(ew, "# HELP %s /v1 request latency per route and status class.\n# TYPE %s histogram\n", name, name)
		for _, key := range labels {
			route, class := SplitServiceKey(key)
			histLines(name, fmt.Sprintf("route=%q,status=%q", route, class), snap[key])
		}
		fmt.Fprintf(ew, "# HELP cliffguard_http_requests_total /v1 requests per route and status class.\n# TYPE cliffguard_http_requests_total counter\n")
		for _, key := range labels {
			route, class := SplitServiceKey(key)
			fmt.Fprintf(ew, "cliffguard_http_requests_total{route=%q,status=%q} %d\n", route, class, snap[key].Count)
		}
	}
	labeledCounter("cliffguard_tenant_runs_total", "Design runs admitted, per tenant.", "tenant", &m.TenantRuns)
	labeledHist("cliffguard_tenant_queue_wait_seconds", "Admission-to-worker-pickup wait, per tenant.", "tenant", &m.TenantQueueWait)
	labeledHist("cliffguard_tenant_run_duration_seconds", "Worker pickup to terminal state, per tenant.", "tenant", &m.TenantRunDuration)
	labeledCounter("cliffguard_admission_rejections_total", "Rejected run submissions, per stable error code.", "code", &m.AdmissionRejections)
	labeledCounter("cliffguard_shared_unitcost_tenant_hits_total", "Shared unit-cost memo hits, per tenant.", "tenant", &m.SharedHitsByTenant)
	labeledCounter("cliffguard_shared_unitcost_tenant_misses_total", "Shared unit-cost memo misses, per tenant.", "tenant", &m.SharedMissByTenant)
	if hits := m.SharedHitsByTenant.Snapshot(); len(hits) > 0 {
		misses := m.SharedMissByTenant.Snapshot()
		fmt.Fprintf(ew, "# HELP cliffguard_shared_unitcost_tenant_hit_ratio Shared unit-cost memo hit ratio, per tenant.\n# TYPE cliffguard_shared_unitcost_tenant_hit_ratio gauge\n")
		for _, tenant := range m.SharedHitsByTenant.Labels() {
			total := hits[tenant] + misses[tenant]
			if total == 0 {
				continue
			}
			fmt.Fprintf(ew, "cliffguard_shared_unitcost_tenant_hit_ratio{tenant=%q} %g\n", tenant, float64(hits[tenant])/float64(total))
		}
	}

	snaps := m.CacheSnapshots()
	if len(snaps) > 0 {
		names := make([]string, 0, len(snaps))
		for name := range snaps {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(ew, "# HELP cliffguard_costcache_hits_total Memo-cache hits per cache.\n# TYPE cliffguard_costcache_hits_total counter\n")
		for _, name := range names {
			fmt.Fprintf(ew, "cliffguard_costcache_hits_total{cache=%q} %d\n", name, snaps[name].Hits)
		}
		fmt.Fprintf(ew, "# HELP cliffguard_costcache_misses_total Memo-cache misses per cache.\n# TYPE cliffguard_costcache_misses_total counter\n")
		for _, name := range names {
			fmt.Fprintf(ew, "cliffguard_costcache_misses_total{cache=%q} %d\n", name, snaps[name].Misses)
		}
		fmt.Fprintf(ew, "# HELP cliffguard_costcache_entries Memoized pairs per cache.\n# TYPE cliffguard_costcache_entries gauge\n")
		for _, name := range names {
			fmt.Fprintf(ew, "cliffguard_costcache_entries{cache=%q} %d\n", name, snaps[name].Entries)
		}
	}
	return ew.err
}

// trimFloat renders a float without trailing zeros (Prometheus le labels).
func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// ServiceKey joins a route and status class into the composite label key
// used by Metrics.HTTPRequestLatency ("GET /v1/healthz|2xx"). The exporters
// split it back into separate route/status labels.
func ServiceKey(route, statusClass string) string { return route + "|" + statusClass }

// SplitServiceKey splits a composite "route|status-class" key; keys without
// a separator yield an empty status class.
func SplitServiceKey(key string) (route, statusClass string) {
	if i := strings.LastIndexByte(key, '|'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// Handler returns an http.Handler serving the Prometheus text format.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
}

// VarsHandler returns an http.Handler serving Snapshot as JSON: the same
// MetricsSnapshot shape as the span stream's metrics record.
func (m *Metrics) VarsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(m.Snapshot())
	})
}

// MetricsServer is a running metrics HTTP endpoint; close it when done.
type MetricsServer struct {
	// Addr is the bound address (useful with ":0").
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// Serve starts an HTTP server on addr exposing /metrics (Prometheus text)
// and /vars (MetricsSnapshot JSON). It returns once the listener is bound, so
// Addr is immediately valid; the server runs until Close.
func Serve(addr string, m *Metrics) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Handler())
	mux.Handle("/vars", m.VarsHandler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ms := &MetricsServer{Addr: ln.Addr().String(), ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return ms, nil
}

// Close shuts the server down immediately, dropping in-flight requests. For
// an orderly stop use Shutdown.
func (s *MetricsServer) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Shutdown stops accepting new connections and waits for in-flight scrapes
// to finish, up to ctx's deadline; past the deadline remaining connections
// are closed forcibly. It is safe on a nil server and after Close.
func (s *MetricsServer) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
		return err
	}
	return nil
}
