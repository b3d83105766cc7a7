package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"time"

	"cliffguard/internal/engine"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/ingest"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// Defaults for the telemetry-related Config knobs.
const (
	// DefaultMaxBodyBytes is Config.MaxBodyBytes when zero (32 MiB).
	DefaultMaxBodyBytes int64 = 32 << 20
	// DefaultFlightDepth is Config.FlightDepth when zero.
	DefaultFlightDepth = 256
)

// Config configures a Server. Zero values mean defaults.
type Config struct {
	// Workers bounds how many runs execute concurrently across ALL tenants
	// (the global admission pool; default runtime.NumCPU()). Runs beyond it
	// queue.
	Workers int
	// QueueDepth bounds how many admitted runs may wait for a worker slot
	// (default 64). Submissions beyond it are rejected with "overloaded".
	QueueDepth int
	// EventsDir, when set, also persists each run's event stream to
	// <EventsDir>/<tenant>-<run>.events.jsonl (flushed when the run
	// finishes and on Shutdown).
	EventsDir string
	// Metrics is the process-wide registry every tenant engine and run
	// shares (default: a fresh registry). The server exposes it at /metrics
	// and /vars.
	Metrics *obs.Metrics
	// Logger receives structured access and run-lifecycle records (default:
	// discard). Every record carries the request ID and tenant when known.
	Logger *slog.Logger
	// MaxBodyBytes bounds request bodies on every /v1 endpoint (default
	// 32 MiB; negative disables). Oversized bodies get a 413 envelope.
	MaxBodyBytes int64
	// FlightDepth is the per-ring capacity of the flight recorder (last N
	// requests, last N run transitions; default 256).
	FlightDepth int
}

// Server is the multi-tenant robust-design advisor: it holds one guard
// context per tenant (engine + accumulated workload + run history), admits
// design runs into a bounded global worker pool, shares the cross-tenant
// unit-cost memo between them, and serves the /v1 HTTP API.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	shared  *evalcache.Shared
	logger  *slog.Logger

	// Flight recorder rings (see flight.go).
	requests    *flightRing[RequestRecord]
	transitions *flightRing[RunTransition]

	baseCtx    context.Context
	baseCancel context.CancelFunc
	slots      chan struct{}
	runWG      sync.WaitGroup

	mu       sync.Mutex
	draining bool
	queued   int
	tenants  map[string]*tenant
	order    []string

	ln  net.Listener
	srv *http.Server
}

// NewServer builds a server from the config.
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.FlightDepth <= 0 {
		cfg.FlightDepth = DefaultFlightDepth
	}
	s := &Server{
		cfg:         cfg,
		metrics:     cfg.Metrics,
		shared:      evalcache.NewShared(),
		logger:      cfg.Logger,
		requests:    newFlightRing[RequestRecord](cfg.FlightDepth),
		transitions: newFlightRing[RunTransition](cfg.FlightDepth),
		slots:       make(chan struct{}, cfg.Workers),
		tenants:     map[string]*tenant{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.metrics.RegisterCache("shared-unitcost", s.shared.Stats)
	return s
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// maxFinishedRuns is how many finished runs a tenant retains. When a run
// ends past it, the tenant forgets its oldest finished runs (a GET of one
// returns 404); runs still queued or running are never forgotten.
const maxFinishedRuns = 64

// tenant is one guard instance: an opened engine, the accumulated workload,
// and the tenant's run history (its newest maxFinishedRuns finished runs
// and every run in flight).
type tenant struct {
	id          string
	spec        engine.Spec
	eng         engine.Engine
	budgetBytes int64

	mu       sync.Mutex
	w        *workload.Workload
	nextID   int64 // next query ID to assign on ingest
	streamed int   // parsed statements across all ingests (pre-fold weight)
	skipped  int   // unparseable statements dropped across all ingests
	runs     map[string]*run
	order    []string
	nextRun  int
	online   *onlineState // enabled online mode, nil otherwise (online.go)

	metrics *obs.Metrics // server registry; receives the ingest_* counters
}

// run is one submitted design run of a tenant.
type run struct {
	id     string
	tenant string
	req    RunRequest
	cancel context.CancelFunc

	// requestID is the HTTP request that submitted the run ("" for direct
	// Submit calls); enqueuedAt anchors the queue-wait span and metric.
	requestID  string
	enqueuedAt time.Time

	mu       sync.Mutex
	handle   *RunHandle // nil while queued (or if admission failed)
	preErr   error      // error before a handle existed
	preState RunStatus  // terminal state reached before a handle existed

	sink *obs.JSONLSink // optional EventsDir sink
	file *os.File
}

func (r *run) setHandle(h *RunHandle) {
	r.mu.Lock()
	r.handle = h
	r.mu.Unlock()
}

func (r *run) getHandle() *RunHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.handle
}

func (r *run) preFinish(st RunStatus, err error) {
	r.mu.Lock()
	r.preState, r.preErr = st, err
	r.mu.Unlock()
}

// status resolves the run's lifecycle state across the queued/admission
// window and the live handle.
func (r *run) status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.handle != nil:
		return r.handle.Status()
	case r.preState != "":
		return r.preState
	default:
		return StatusQueued
	}
}

func (r *run) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.handle != nil {
		return r.handle.Err()
	}
	return r.preErr
}

var tenantIDRe = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// CreateTenant opens a tenant's engine and registers it. The engine is
// instrumented into the server's shared metrics registry.
func (s *Server) CreateTenant(id string, spec engine.Spec, budgetBytes int64) (*tenant, error) {
	if !tenantIDRe.MatchString(id) {
		return nil, errBadRequest(fmt.Errorf("tenant id %q must match %s", id, tenantIDRe))
	}
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	eng, err := engine.Open(spec)
	if err != nil {
		return nil, errBadRequest(err)
	}
	norm, _ := spec.Normalize()
	t := &tenant{
		id: id, spec: norm, eng: eng, budgetBytes: budgetBytes,
		w: &workload.Workload{}, nextID: 1, runs: map[string]*run{},
		metrics: s.metrics,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if _, dup := s.tenants[id]; dup {
		return nil, errConflict(fmt.Errorf("tenant %q already exists", id))
	}
	eng.Instrument(s.metrics)
	s.tenants[id] = t
	s.order = append(s.order, id)
	return t, nil
}

// Tenant looks a tenant up.
func (s *Server) Tenant(id string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		return nil, errNotFound(fmt.Errorf("tenant %q not found", id))
	}
	return t, nil
}

// DeleteTenant cancels the tenant's in-flight runs and removes it, with its
// labeled metric series. Memoized shared-cache entries survive (they are
// content-keyed and tenant-free).
func (s *Server) DeleteTenant(id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
		for i, v := range s.order {
			if v == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		m := s.metrics
		m.TenantRuns.Delete(id)
		m.TenantRunDuration.Delete(id)
		m.TenantQueueWait.Delete(id)
		m.SharedHitsByTenant.Delete(id)
		m.SharedMissByTenant.Delete(id)
	}
	s.mu.Unlock()
	if !ok {
		return errNotFound(fmt.Errorf("tenant %q not found", id))
	}
	t.mu.Lock()
	runs := make([]*run, 0, len(t.runs))
	for _, r := range t.runs {
		runs = append(runs, r)
	}
	t.mu.Unlock()
	for _, r := range runs {
		r.cancel()
	}
	return nil
}

// tenantSeries runs update, which writes t's labeled metric series, unless
// t has been deleted. DeleteTenant drops those series under the same lock,
// so a run that ends after its tenant is gone cannot re-create them (nor
// write into a new tenant of the same ID).
func (s *Server) tenantSeries(t *tenant, update func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[t.id] == t {
		update()
	}
}

// tenantIDs snapshots tenant IDs in creation order.
func (s *Server) tenantIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Ingest streams parsed queries from r into the tenant's accumulated
// workload via the template-compressed ingestion path, continuing the
// tenant's query-ID sequence (IDs advance per attempted statement, parsed or
// skipped). It returns how many statements parsed and how many were skipped;
// duplicates within one submission fold into weighted items, so the
// workload's item count can be smaller than added.
func (t *tenant) Ingest(r io.Reader) (added, skipped int, err error) {
	t.mu.Lock()
	firstID := t.nextID
	t.mu.Unlock()
	w, st, err := ingest.Reader(t.eng.Schema(), r, ingest.Options{FirstID: firstID, Metrics: t.metrics})
	if err != nil {
		var nq *ingest.NoQueriesError
		if errors.As(err, &nq) {
			return 0, nq.Skipped, errBadRequest(fmt.Errorf("serve: no parseable queries (%d lines skipped)", nq.Skipped))
		}
		return 0, 0, errBadRequest(err)
	}
	t.mu.Lock()
	t.w.Items = append(t.w.Items, w.Items...)
	t.nextID = firstID + int64(st.Attempts())
	t.streamed += st.Streamed
	t.skipped += st.Skipped
	t.mu.Unlock()
	return st.Streamed, st.Skipped, nil
}

// snapshotWorkload returns an immutable snapshot the run may keep.
func (t *tenant) snapshotWorkload() *workload.Workload {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Clone()
}

// workloadInfo snapshots the tenant's ingestion accounting: queries is the
// number of parsed statements (the pre-fold count, preserving the field's
// historical meaning), templates the number of folded workload items.
func (t *tenant) workloadInfo() (queries, skipped, templates int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streamed, t.skipped, t.w.Len()
}

func (t *tenant) run(id string) (*run, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.runs[id]
	if !ok {
		return nil, errNotFound(fmt.Errorf("run %q not found in tenant %q", id, t.id))
	}
	return r, nil
}

func (t *tenant) runIDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// pruneRuns forgets the tenant's oldest finished runs beyond
// maxFinishedRuns.
func (t *tenant) pruneRuns() {
	t.mu.Lock()
	defer t.mu.Unlock()
	excess := -maxFinishedRuns
	for _, id := range t.order {
		if t.runs[id].status().Terminal() {
			excess++
		}
	}
	kept := t.order[:0]
	for _, id := range t.order {
		if excess > 0 && t.runs[id].status().Terminal() {
			delete(t.runs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
}

// Submit admits a design run for the tenant: it snapshots nothing yet (the
// workload is cloned when a worker slot frees up), assigns the run ID, and
// returns immediately. Rejections: errDraining during shutdown, errOverloaded
// past QueueDepth.
func (s *Server) Submit(t *tenant, req RunRequest) (*run, error) {
	return s.submit(t, req, "")
}

// submit is Submit plus the originating HTTP request ID (the handler path);
// the ID rides only the telemetry side-channels, never the run itself.
func (s *Server) submit(t *tenant, req RunRequest, requestID string) (*run, error) {
	if err := req.validate(); err != nil {
		return nil, errBadRequest(err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.AdmissionRejections.Inc(errDraining.code)
		return nil, errDraining
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.AdmissionRejections.Inc(errOverloaded.code)
		return nil, errOverloaded
	}
	s.queued++
	s.mu.Unlock()

	t.mu.Lock()
	if t.w.Len() == 0 {
		t.mu.Unlock()
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		return nil, errBadRequest(fmt.Errorf("tenant %q has no workload; POST it first", t.id))
	}
	t.nextRun++
	r := &run{
		id: fmt.Sprintf("r%04d", t.nextRun), tenant: t.id, req: req,
		requestID: requestID, enqueuedAt: time.Now(),
	}
	t.runs[r.id] = r
	t.order = append(t.order, r.id)
	t.mu.Unlock()

	s.tenantSeries(t, func() { s.metrics.TenantRuns.Inc(t.id) })
	s.recordTransition(RunTransition{
		RequestID: requestID, Tenant: t.id, Run: r.id, To: string(StatusQueued),
	})
	runCtx, cancel := context.WithCancel(s.baseCtx)
	r.cancel = cancel
	s.runWG.Add(1)
	go s.execute(t, r, runCtx)
	return r, nil
}

// execute runs one admitted run to completion on its own goroutine: wait for
// a worker slot (or cancellation), snapshot the tenant workload, start the
// guard, flush the run's file sink when it finishes, and prune the tenant's
// finished runs.
func (s *Server) execute(t *tenant, r *run, ctx context.Context) {
	defer s.runWG.Done()
	defer t.pruneRuns()
	defer r.cancel()

	select {
	case <-ctx.Done():
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		r.preFinish(StatusCancelled, ctx.Err())
		s.recordTransition(RunTransition{
			RequestID: r.requestID, Tenant: t.id, Run: r.id,
			From: string(StatusQueued), To: string(StatusCancelled),
		})
		return
	case s.slots <- struct{}{}:
	}
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	defer func() { <-s.slots }()

	pickedUp := time.Now()
	wait := pickedUp.Sub(r.enqueuedAt)
	s.tenantSeries(t, func() { s.metrics.TenantQueueWait.Observe(t.id, wait) })
	s.recordTransition(RunTransition{
		RequestID: r.requestID, Tenant: t.id, Run: r.id,
		From: string(StatusQueued), To: string(StatusRunning),
		Detail: fmt.Sprintf("queue_wait=%s", wait.Round(time.Microsecond)),
	})

	spec := r.req.Spec()
	spec.Opened = t.eng
	spec.BudgetBytes = t.budgetBytes
	spec.Options = spec.Options.WithMetrics(s.metrics)
	spec.Workload = t.snapshotWorkload()
	spec.Shared = s.shared
	spec.Tenant = t.id
	spec.RequestID = r.requestID
	spec.EnqueuedAt = r.enqueuedAt
	spec.tenantSeries = func(update func()) { s.tenantSeries(t, update) }
	if s.cfg.EventsDir != "" {
		path := filepath.Join(s.cfg.EventsDir, fmt.Sprintf("%s-%s.events.jsonl", t.id, r.id))
		if f, err := os.Create(path); err == nil {
			r.mu.Lock()
			r.file, r.sink = f, obs.NewJSONLSink(f)
			r.mu.Unlock()
			spec.Options = spec.Options.WithObserver(r.sink)
		}
	}
	h, err := StartRun(ctx, spec)
	if err != nil {
		r.preFinish(StatusFailed, err)
		s.closeRunSink(r)
		s.observeRunDuration(t, pickedUp)
		s.recordTransition(RunTransition{
			RequestID: r.requestID, Tenant: t.id, Run: r.id,
			From: string(StatusRunning), To: string(StatusFailed), Detail: err.Error(),
		})
		return
	}
	r.setHandle(h)
	<-h.Done()
	s.closeRunSink(r)
	s.observeRunDuration(t, pickedUp)
	final := RunTransition{
		RequestID: r.requestID, Tenant: t.id, Run: r.id,
		From: string(StatusRunning), To: string(h.Status()),
	}
	if err := h.Err(); err != nil {
		final.Detail = err.Error()
	}
	s.recordTransition(final)
}

// observeRunDuration records a run's pickup-to-terminal time for t.
func (s *Server) observeRunDuration(t *tenant, pickedUp time.Time) {
	d := time.Since(pickedUp)
	s.tenantSeries(t, func() { s.metrics.TenantRunDuration.Observe(t.id, d) })
}

// closeRunSink flushes and closes the run's EventsDir stream, if any.
func (s *Server) closeRunSink(r *run) {
	r.mu.Lock()
	sink, file := r.sink, r.file
	r.sink, r.file = nil, nil
	r.mu.Unlock()
	if sink != nil {
		_ = sink.Flush()
	}
	if file != nil {
		_ = file.Close()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new submissions are rejected, every in-flight
// run is cancelled, and the call waits (up to ctx's deadline) for runs to
// finish and their event streams to flush. Tenant state — engines, workloads,
// run history — stays listable until the process exits, so a supervisor can
// scrape /v1/statez for resume bookkeeping during the drain window.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel() // cancels every run's context

	done := make(chan struct{})
	go func() {
		s.runWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if s.srv != nil {
		sctx := ctx
		if err != nil { // deadline already spent; close immediately
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
		}
		if serr := s.srv.Shutdown(sctx); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// Start binds addr and serves the API until Shutdown. It returns once the
// listener is bound, so Addr is immediately valid (use ":0" in tests).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// stateSnapshot captures the listable server state for /v1/statez.
func (s *Server) stateSnapshot() StateInfo {
	st := StateInfo{Draining: s.Draining(), Workers: s.cfg.Workers, QueueDepth: s.cfg.QueueDepth}
	stats := s.shared.Stats()
	st.SharedCache = SharedCacheInfo{Hits: stats.Hits, Misses: stats.Misses, Entries: stats.Entries}
	for _, id := range s.tenantIDs() {
		t, err := s.Tenant(id)
		if err != nil {
			continue
		}
		ti := s.tenantInfo(t)
		for _, rid := range t.runIDs() {
			r, err := t.run(rid)
			if err != nil {
				continue
			}
			ti.Runs = append(ti.Runs, s.runInfo(r))
		}
		st.Tenants = append(st.Tenants, ti)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].ID < st.Tenants[j].ID })
	return st
}
