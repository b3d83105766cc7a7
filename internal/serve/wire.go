package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/engine"
)

// WireSchemaVersion is the envelope schema version of every /v1 response,
// mirroring the `{"schema":1}` convention of the internal/obs JSONL streams.
const WireSchemaVersion = 1

// envelope is the uniform response shape: {"schema":1,"data":...} on success,
// {"schema":1,"error":{"code","message"}} on failure.
type envelope struct {
	Schema int        `json:"schema"`
	Data   any        `json:"data,omitempty"`
	Error  *ErrorInfo `json:"error,omitempty"`
}

// ErrorInfo is the error payload of the envelope: a stable machine-readable
// code plus a human-readable message.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError carries an HTTP status and a stable code alongside the cause.
type apiError struct {
	status int
	code   string
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

func errBadRequest(err error) error {
	return &apiError{status: http.StatusBadRequest, code: "bad_request", err: err}
}
func errNotFound(err error) error {
	return &apiError{status: http.StatusNotFound, code: "not_found", err: err}
}
func errConflict(err error) error {
	return &apiError{status: http.StatusConflict, code: "conflict", err: err}
}

// Admission rejections: draining during Shutdown, overloaded past QueueDepth.
var (
	errDraining = &apiError{
		status: http.StatusServiceUnavailable, code: "draining",
		err: errors.New("server is draining; no new work accepted"),
	}
	errOverloaded = &apiError{
		status: http.StatusTooManyRequests, code: "overloaded",
		err: errors.New("run queue is full; retry later"),
	}
	// errSaturated is /v1/readyz's "stop routing here" verdict while the
	// admission queue is full but the server is otherwise healthy.
	errSaturated = &apiError{
		status: http.StatusServiceUnavailable, code: "saturated",
		err: errors.New("admission queue is saturated; back off"),
	}
)

// httpStatus maps an error to its HTTP status and stable code. A body larger
// than Config.MaxBodyBytes surfaces as *http.MaxBytesError from the reader
// (often wrapped by a bad_request); it wins so clients see 413, not 400.
func httpStatus(err error) (int, string) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, "body_too_large"
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, ae.code
	}
	return http.StatusInternalServerError, "internal"
}

// TenantSpec is the request body of POST /v1/tenants.
type TenantSpec struct {
	ID string `json:"id"`
	// Engine is the engine spec ({"kind":"rowstore","scale":1}).
	Engine EngineSpecWire `json:"engine"`
	// BudgetMiB is the designers' storage budget (0 = 2560).
	BudgetMiB int64 `json:"budget_mib,omitempty"`
}

// EngineSpecWire is the JSON shape of an engine spec (kind + scale; explicit
// schemas and datasets are library-only).
type EngineSpecWire struct {
	Kind  string `json:"kind"`
	Scale int64  `json:"scale,omitempty"`
}

// TenantInfo describes one tenant.
type TenantInfo struct {
	ID        string         `json:"id"`
	Engine    EngineSpecWire `json:"engine"`
	BudgetMiB int64          `json:"budget_mib"`
	Queries   int            `json:"queries"`
	Skipped   int            `json:"skipped"`
	Runs      []RunInfo      `json:"runs,omitempty"`
}

// TenantList is the response of GET /v1/tenants.
type TenantList struct {
	Tenants []TenantInfo `json:"tenants"`
}

// WorkloadInfo describes a tenant's accumulated workload (and, on ingest,
// the delta just added). Queries counts parsed statements (its historical
// meaning); Templates counts the folded weighted items actually resident,
// so Queries-Templates is the compression the streaming ingestion achieved.
type WorkloadInfo struct {
	Queries   int `json:"queries"`
	Skipped   int `json:"skipped"`
	Templates int `json:"templates,omitempty"`
	Added     int `json:"added,omitempty"`
}

// RunRequest is the request body of POST /v1/tenants/{tenant}/runs: the wire
// form of a RunSpec minus what the tenant already pins (engine, budget,
// workload).
type RunRequest struct {
	Gamma         float64  `json:"gamma"`
	Samples       int      `json:"samples,omitempty"`
	Iterations    int      `json:"iterations,omitempty"`
	Seed          int64    `json:"seed,omitempty"`
	Parallelism   int      `json:"parallelism,omitempty"`
	Shards        int      `json:"shards,omitempty"` // deprecated alias of Parallelism, kept so older clients still decode
	TopFraction   float64  `json:"top_fraction,omitempty"`
	Metric        string   `json:"metric,omitempty"`
	Designers     []string `json:"designers,omitempty"`
	MemberTimeout string   `json:"member_timeout,omitempty"`
}

func (r RunRequest) validate() error {
	if r.Gamma <= 0 {
		return fmt.Errorf("gamma must be > 0 (the nominal design needs no server)")
	}
	if r.Shards < 0 {
		return fmt.Errorf("shards = %d, must be >= 0", r.Shards)
	}
	if _, err := resolveMetric(r.Metric, 1); err != nil {
		return err
	}
	if r.MemberTimeout != "" {
		if _, err := time.ParseDuration(r.MemberTimeout); err != nil {
			return fmt.Errorf("member_timeout: %w", err)
		}
	}
	return r.Options().Validate()
}

// Options lowers the wire request to loop options. A positive Shards stands
// in for an unset Parallelism.
func (r RunRequest) Options() core.Options {
	var mt time.Duration
	if r.MemberTimeout != "" {
		mt, _ = time.ParseDuration(r.MemberTimeout)
	}
	par := r.Parallelism
	if par == 0 && r.Shards > 0 {
		par = r.Shards
	}
	return core.Options{
		Gamma: r.Gamma, Samples: r.Samples, Iterations: r.Iterations,
		Seed: r.Seed, Parallelism: par,
		TopFraction: r.TopFraction, MemberTimeout: mt,
	}
}

// RunInfo describes one run's lifecycle.
type RunInfo struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// RequestID is the HTTP request that submitted the run (empty for runs
	// submitted through the library API).
	RequestID string `json:"request_id,omitempty"`

	Gamma     float64  `json:"gamma"`
	Seed      int64    `json:"seed"`
	Designers []string `json:"designers,omitempty"`
	Metric    string   `json:"metric,omitempty"`
}

// RunList is the response of GET /v1/tenants/{tenant}/runs.
type RunList struct {
	Runs []RunInfo `json:"runs"`
}

// StructureInfo is one design structure.
type StructureInfo struct {
	Key       string `json:"key"`
	SizeBytes int64  `json:"size_bytes"`
	Describe  string `json:"describe"`
}

// DesignInfo is the response of GET .../runs/{run}/design.
type DesignInfo struct {
	Structures []StructureInfo `json:"structures"`
	TotalBytes int64           `json:"total_bytes"`
}

// TracePoint is one robust-loop iteration of a finished run.
type TracePoint struct {
	Iteration     int     `json:"iteration"`
	Alpha         float64 `json:"alpha"`
	WorstCase     float64 `json:"worst_case"`
	CandidateCost float64 `json:"candidate_cost"`
	Improved      bool    `json:"improved"`
}

// TraceInfo is the response of GET .../runs/{run}/trace.
type TraceInfo struct {
	// RequestID is the HTTP request that submitted the run, when known.
	RequestID string       `json:"request_id,omitempty"`
	Trace     []TracePoint `json:"trace"`
}

// SharedCacheInfo summarizes the cross-tenant unit-cost memo.
type SharedCacheInfo struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// StateInfo is the response of GET /v1/statez: the full listable server
// state (what a supervisor scrapes during a drain to plan a resume).
type StateInfo struct {
	Draining    bool            `json:"draining"`
	Workers     int             `json:"workers"`
	QueueDepth  int             `json:"queue_depth"`
	SharedCache SharedCacheInfo `json:"shared_cache"`
	Tenants     []TenantInfo    `json:"tenants"`
}

// HealthInfo is the response of GET /v1/healthz.
type HealthInfo struct {
	Status   string `json:"status"` // "ok" or "draining"
	Tenants  int    `json:"tenants"`
	Draining bool   `json:"draining"`
}

// ReadyInfo is the response of GET /v1/readyz when the server is routable.
// While draining or saturated, readyz instead returns a 503 envelope with
// the stable code "draining" or "saturated".
type ReadyInfo struct {
	Ready      bool `json:"ready"`
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queue_depth"`
	Queued     int  `json:"queued"`
}

// writeData writes a success envelope.
func writeData(w http.ResponseWriter, status int, data any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(envelope{Schema: WireSchemaVersion, Data: data})
}

// writeError writes an error envelope.
func writeError(w http.ResponseWriter, err error) {
	status, code := httpStatus(err)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(envelope{
		Schema: WireSchemaVersion,
		Error:  &ErrorInfo{Code: code, Message: err.Error()},
	})
}

// engineSpec lowers the wire engine spec to the engine package's Spec.
func engineSpec(w EngineSpecWire) engine.Spec {
	return engine.Spec{Kind: w.Kind, Scale: w.Scale}
}
