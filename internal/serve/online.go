package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"cliffguard/internal/designer"
	"cliffguard/internal/engine"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/ingest"
	"cliffguard/internal/obs"
	"cliffguard/internal/online"
)

// Per-tenant online mode: a sliding-window drift controller layered on the
// tenant's engine. Enabling it (POST .../online) builds an
// online.Controller; the observe endpoint streams SQL into its window and —
// when a drift check fires and auto_redesign is set — pushes an asynchronous
// re-design through the server's global worker pool, so online re-designs
// compete for the same slots as batch runs. The incumbent/candidate
// endpoints expose the safety rule's latest verdict.

// onlineState is one tenant's enabled online mode.
type onlineState struct {
	ctrl *online.Controller
	spec OnlineSpec
	auto bool

	// shared is the controller's layer over the cross-tenant memo (nil
	// without one); attributed counts how much of its hits and misses the
	// tenant's labeled series already hold, guarded by the server's mutex.
	shared                           *evalcache.Layer
	attributedHits, attributedMisses uint64
}

// OnlineSpec is the request body of POST /v1/tenants/{tenant}/online.
type OnlineSpec struct {
	// RunRequest configures each re-design run, as it configures a batch
	// run; Gamma must be > 0. Drift is measured with its metric.
	RunRequest
	// DriftFraction scales the drift threshold (fire when
	// delta > DriftFraction*Gamma; 0 = 1.0). CheckEvery checks drift every N
	// accepted observations (0 = on bucket rotation).
	DriftFraction float64 `json:"drift_fraction,omitempty"`
	CheckEvery    int     `json:"check_every,omitempty"`
	// Buckets and BucketSize size the sliding window ring.
	Buckets    int `json:"buckets,omitempty"`
	BucketSize int `json:"bucket_size,omitempty"`
	// DisableSeed / DisableWarmStart switch off incumbent seeding and the
	// run-to-run unit-cost handoff (see online.Config).
	DisableSeed      bool `json:"disable_seed,omitempty"`
	DisableWarmStart bool `json:"disable_warm_start,omitempty"`
	// AutoRedesign starts an asynchronous re-design (through the server's
	// worker pool) whenever an observe call's drift check fires.
	AutoRedesign bool `json:"auto_redesign,omitempty"`
}

// OnlineWindowInfo summarizes the sliding window.
type OnlineWindowInfo struct {
	Observed    uint64  `json:"observed"`
	Evicted     uint64  `json:"evicted"`
	Skipped     uint64  `json:"skipped"`
	Rotations   uint64  `json:"rotations"`
	Buckets     int     `json:"buckets"`
	Queries     int     `json:"queries"`
	TotalWeight float64 `json:"total_weight"`
}

// OnlineInfo is the online-mode status payload.
type OnlineInfo struct {
	Enabled       bool             `json:"enabled"`
	Gamma         float64          `json:"gamma,omitempty"`
	DriftFraction float64          `json:"drift_fraction,omitempty"`
	AutoRedesign  bool             `json:"auto_redesign,omitempty"`
	HasIncumbent  bool             `json:"has_incumbent,omitempty"`
	LastDelta     float64          `json:"last_delta,omitempty"`
	LastThreshold float64          `json:"last_threshold,omitempty"`
	DriftChecks   uint64           `json:"drift_checks,omitempty"`
	DriftFires    uint64           `json:"drift_fires,omitempty"`
	Redesigns     uint64           `json:"redesigns,omitempty"`
	Published     uint64           `json:"published,omitempty"`
	SafetyRejects uint64           `json:"safety_rejects,omitempty"`
	Window        OnlineWindowInfo `json:"window"`
}

// ObserveInfo is the response of POST .../online/observe: how many parsed
// statements entered the window, plus the last drift decision of the batch.
type ObserveInfo struct {
	Observed int `json:"observed"`
	Skipped  int `json:"skipped"`
	// Checked/Delta/Threshold/Fired report the batch's final drift check (a
	// batch may cross several check points; the last one is the freshest).
	Checked   bool    `json:"checked,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Fired     bool    `json:"fired,omitempty"`
	// RedesignStarted reports that this call kicked off an asynchronous
	// auto re-design.
	RedesignStarted bool `json:"redesign_started,omitempty"`
}

// OnlineRedesignInfo is the outcome of one online re-design: the safety
// rule's verdict plus the candidate design. Worst-case fields are omitted
// when the rule had nothing to compare (bootstrap).
type OnlineRedesignInfo struct {
	Published      bool       `json:"published"`
	SafetyRejected bool       `json:"safety_rejected,omitempty"`
	IncumbentWorst float64    `json:"incumbent_worst,omitempty"`
	CandidateWorst float64    `json:"candidate_worst,omitempty"`
	WarmHits       uint64     `json:"warm_hits,omitempty"`
	Iterations     int        `json:"iterations"`
	Design         DesignInfo `json:"design"`
}

func (t *tenant) getOnline() *onlineState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.online
}

// onlineOrErr resolves the tenant's enabled online state.
func (s *Server) onlineOrErr(r *http.Request) (*tenant, *onlineState, error) {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return nil, nil, err
	}
	st := t.getOnline()
	if st == nil {
		return nil, nil, errNotFound(fmt.Errorf("tenant %q has no online mode; POST /v1/tenants/%s/online first", t.id, t.id))
	}
	return t, st, nil
}

// NewOnline builds the online controller of spec against an opened engine,
// through the same assembly as StartRun. With shared set, its re-designs
// cost queries through a Layer over it, which is returned so that callers can
// attribute its hits; the controller layers its own run-to-run handoff on top
// (values are identical to the raw engine either way, so the handoff's
// contract, one cost model across a controller's runs, holds). met and ob
// instrument the controller; either may be nil.
func NewOnline(eng engine.Engine, budgetBytes int64, spec OnlineSpec, shared *evalcache.Shared, met *obs.Metrics, ob obs.Observer) (*online.Controller, *evalcache.Layer, error) {
	cfg, layer, err := onlineConfig(eng, budgetBytes, spec, shared, met, ob)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := online.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return ctrl, layer, nil
}

// onlineConfig is the controller configuration NewOnline builds.
func onlineConfig(eng engine.Engine, budgetBytes int64, spec OnlineSpec, shared *evalcache.Shared, met *obs.Metrics, ob obs.Observer) (online.Config, *evalcache.Layer, error) {
	run := spec.Spec()
	run.Opened, run.BudgetBytes, run.Shared = eng, budgetBytes, shared
	run.Options.Metrics = met
	a, err := assemble(run)
	if err != nil {
		return online.Config{}, nil, err
	}
	return online.Config{
		Designer:         a.nominal,
		Cost:             a.cost,
		Sampler:          a.sampler,
		Metric:           a.metric,
		Options:          a.opts,
		DriftFraction:    spec.DriftFraction,
		CheckEvery:       spec.CheckEvery,
		Window:           online.WindowConfig{Buckets: spec.Buckets, BucketSize: spec.BucketSize},
		DisableSeed:      spec.DisableSeed,
		DisableWarmStart: spec.DisableWarmStart,
		Metrics:          met,
		Observer:         ob,
	}, a.layer, nil
}

// buildOnline checks the wire spec and builds the tenant's online state over
// the server's cross-tenant memo.
func (s *Server) buildOnline(t *tenant, spec OnlineSpec) (*onlineState, error) {
	if err := spec.validate(); err != nil {
		return nil, errBadRequest(err)
	}
	ctrl, shared, err := NewOnline(t.eng, t.budgetBytes, spec, s.shared, s.metrics, nil)
	if err != nil {
		return nil, errBadRequest(err)
	}
	return &onlineState{ctrl: ctrl, spec: spec, auto: spec.AutoRedesign, shared: shared}, nil
}

// redesign runs one re-design of the tenant's controller, then adds the
// shared-memo hits and misses it made to the tenant's labeled series.
func (s *Server) redesign(t *tenant, st *onlineState) (*online.Result, error) {
	res, err := st.ctrl.Redesign(s.baseCtx)
	if st.shared != nil {
		s.tenantSeries(t, func() {
			hits, misses := st.shared.Hits(), st.shared.Misses()
			if n := hits - st.attributedHits; n > 0 {
				s.metrics.SharedHitsByTenant.Add(t.id, n)
			}
			if n := misses - st.attributedMisses; n > 0 {
				s.metrics.SharedMissByTenant.Add(t.id, n)
			}
			st.attributedHits, st.attributedMisses = hits, misses
		})
	}
	return res, err
}

// onlineInfo renders the tenant's online status.
func onlineInfo(st *onlineState) OnlineInfo {
	status := st.ctrl.Status()
	return OnlineInfo{
		Enabled:       true,
		Gamma:         st.spec.Gamma,
		DriftFraction: st.spec.DriftFraction,
		AutoRedesign:  st.auto,
		HasIncumbent:  status.HasIncumbent,
		LastDelta:     status.LastDelta,
		LastThreshold: status.LastThreshold,
		DriftChecks:   status.DriftChecks,
		DriftFires:    status.DriftFires,
		Redesigns:     status.Redesigns,
		Published:     status.Published,
		SafetyRejects: status.SafetyRejects,
		Window: OnlineWindowInfo{
			Observed:    status.Window.Observed,
			Evicted:     status.Window.Evicted,
			Skipped:     status.Window.Skipped,
			Rotations:   status.Window.Rotations,
			Buckets:     status.Window.Buckets,
			Queries:     status.Window.Queries,
			TotalWeight: status.Window.TotalWeight,
		},
	}
}

func (s *Server) handleOnlineEnable(w http.ResponseWriter, r *http.Request) error {
	t, err := s.Tenant(r.PathValue("tenant"))
	if err != nil {
		return err
	}
	if s.Draining() {
		return errDraining
	}
	var spec OnlineSpec
	if err := decodeJSON(r.Body, &spec); err != nil {
		return err
	}
	st, err := s.buildOnline(t, spec)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.online != nil {
		t.mu.Unlock()
		return errConflict(fmt.Errorf("tenant %q already has online mode enabled; DELETE it first", t.id))
	}
	t.online = st
	t.mu.Unlock()
	writeData(w, http.StatusCreated, onlineInfo(st))
	return nil
}

func (s *Server) handleOnlineGet(w http.ResponseWriter, r *http.Request) error {
	_, st, err := s.onlineOrErr(r)
	if err != nil {
		return err
	}
	writeData(w, http.StatusOK, onlineInfo(st))
	return nil
}

func (s *Server) handleOnlineDisable(w http.ResponseWriter, r *http.Request) error {
	t, st, err := s.onlineOrErr(r)
	if err != nil {
		return err
	}
	info := onlineInfo(st)
	info.Enabled = false
	t.mu.Lock()
	t.online = nil
	t.mu.Unlock()
	writeData(w, http.StatusOK, info)
	return nil
}

// handleOnlineObserve streams SQL statements (text/plain body, one per line
// or semicolon-separated — same parser as the workload endpoint) into the
// tenant's sliding window, running the drift monitor at its configured
// cadence. Duplicates are not folded: each statement is one observation, in
// stream order, so the window's bucket and check cadence count statements
// and observed + skipped equals the statement attempts. With auto_redesign
// set, a fired check starts an asynchronous re-design through the server's
// worker pool.
func (s *Server) handleOnlineObserve(w http.ResponseWriter, r *http.Request) error {
	t, st, err := s.onlineOrErr(r)
	if err != nil {
		return err
	}
	if s.Draining() {
		return errDraining
	}
	t.mu.Lock()
	firstID := t.nextID
	t.mu.Unlock()
	parsed, ist, err := ingest.Reader(t.eng.Schema(), r.Body, ingest.Options{FirstID: firstID, NoFold: true, Metrics: t.metrics})
	if err != nil {
		var nq *ingest.NoQueriesError
		if errors.As(err, &nq) {
			return errBadRequest(fmt.Errorf("serve: no parseable queries (%d lines skipped)", nq.Skipped))
		}
		return errBadRequest(err)
	}
	t.mu.Lock()
	t.nextID = firstID + int64(ist.Attempts())
	t.mu.Unlock()

	info := ObserveInfo{Skipped: ist.Skipped}
	fired := false
	for _, it := range parsed.Items {
		dec := st.ctrl.Observe(it.Q, it.Weight)
		if dec.Accepted {
			info.Observed++
		} else {
			info.Skipped++
		}
		if dec.Checked {
			info.Checked = true
			info.Delta, info.Threshold, info.Fired = dec.Delta, dec.Threshold, dec.Fired
		}
		fired = fired || dec.Fired
	}
	if fired && st.auto {
		info.RedesignStarted = s.startAutoRedesign(t, st, requestIDFrom(r.Context()))
	}
	writeData(w, http.StatusOK, info)
	return nil
}

// startAutoRedesign pushes an asynchronous re-design through the global
// worker pool. Reports false when the server is draining (the goroutine is
// not started); an already-in-progress re-design resolves inside the
// goroutine as a logged no-op.
func (s *Server) startAutoRedesign(t *tenant, st *onlineState, requestID string) bool {
	if s.Draining() {
		return false
	}
	s.runWG.Add(1)
	go func() {
		defer s.runWG.Done()
		select {
		case <-s.baseCtx.Done():
			return
		case s.slots <- struct{}{}:
		}
		defer func() { <-s.slots }()
		res, err := s.redesign(t, st)
		switch {
		case errors.Is(err, online.ErrRedesignInProgress):
			s.logger.Info("online auto-redesign skipped: already in progress",
				"tenant", t.id, "request_id", requestID)
		case err != nil:
			s.logger.Warn("online auto-redesign failed",
				"tenant", t.id, "request_id", requestID, "error", err.Error())
		default:
			s.logger.Info("online auto-redesign finished",
				"tenant", t.id, "request_id", requestID,
				"published", res.Published, "safety_rejected", res.SafetyRejected)
		}
	}()
	return true
}

// handleOnlineRedesign runs a synchronous re-design on the current window
// (through the worker pool, so it respects the global concurrency bound).
func (s *Server) handleOnlineRedesign(w http.ResponseWriter, r *http.Request) error {
	t, st, err := s.onlineOrErr(r)
	if err != nil {
		return err
	}
	if s.Draining() {
		return errDraining
	}
	select {
	case <-s.baseCtx.Done():
		return errDraining
	case <-r.Context().Done():
		return errBadRequest(r.Context().Err())
	case s.slots <- struct{}{}:
	}
	defer func() { <-s.slots }()
	res, err := s.redesign(t, st)
	if err != nil {
		if errors.Is(err, online.ErrRedesignInProgress) {
			return errConflict(err)
		}
		return errBadRequest(err)
	}
	writeData(w, http.StatusOK, redesignInfo(res))
	return nil
}

func (s *Server) handleOnlineIncumbent(w http.ResponseWriter, r *http.Request) error {
	_, st, err := s.onlineOrErr(r)
	if err != nil {
		return err
	}
	d := st.ctrl.Incumbent()
	if d == nil {
		return errConflict(fmt.Errorf("no incumbent design yet; POST .../online/redesign first"))
	}
	writeData(w, http.StatusOK, designInfo(d))
	return nil
}

func (s *Server) handleOnlineCandidate(w http.ResponseWriter, r *http.Request) error {
	_, st, err := s.onlineOrErr(r)
	if err != nil {
		return err
	}
	res := st.ctrl.LastResult()
	if res == nil {
		return errConflict(fmt.Errorf("no re-design has run yet"))
	}
	writeData(w, http.StatusOK, redesignInfo(res))
	return nil
}

// redesignInfo renders a re-design outcome; NaN worst-case costs (bootstrap:
// nothing to compare against) render as omitted zero fields.
func redesignInfo(res *online.Result) OnlineRedesignInfo {
	info := OnlineRedesignInfo{
		Published:      res.Published,
		SafetyRejected: res.SafetyRejected,
		WarmHits:       res.WarmHits,
		Iterations:     len(res.Traces),
		Design:         designInfo(res.Design),
	}
	if !math.IsNaN(res.IncumbentWorst) {
		info.IncumbentWorst = res.IncumbentWorst
	}
	if !math.IsNaN(res.CandidateWorst) {
		info.CandidateWorst = res.CandidateWorst
	}
	return info
}

// designInfo renders a design as the wire DesignInfo (shared by the run and
// online endpoints).
func designInfo(d *designer.Design) DesignInfo {
	info := DesignInfo{Structures: []StructureInfo{}, TotalBytes: d.SizeBytes()}
	for _, st := range d.Structures {
		info.Structures = append(info.Structures, StructureInfo{
			Key: st.Key(), SizeBytes: st.SizeBytes(), Describe: st.Describe(),
		})
	}
	return info
}
