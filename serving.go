package cliffguard

import (
	"context"
	"io"

	"cliffguard/internal/engine"
	"cliffguard/internal/ingest"
	"cliffguard/internal/serve"
	"cliffguard/internal/sqlparse"
)

// The engine facade: one spec-driven constructor for every engine simulator,
// e.g. OpenEngine(EngineSpec{Kind: "rowstore"}). Engine.NominalDesigner
// returns the engine's own designer and Engine.Unwrap the simulator.
type (
	// EngineSpec declares which engine to open (kind, scale, optional
	// explicit schema or dataset). The zero Kind means "vertica".
	EngineSpec = engine.Spec
	// Engine is an opened engine: the cost model plus schema access, the
	// nominal designer, metrics instrumentation, the cost-model class
	// fingerprint, and Unwrap to the underlying simulator.
	Engine = engine.Engine
)

// Engine kind names accepted by EngineSpec.Kind.
const (
	EngineVertica  = engine.KindVertica
	EngineRowStore = engine.KindRowStore
	EngineApprox   = engine.KindApprox
)

// OpenEngine opens the engine the spec names. Aliases ("rowsim", "vertsim",
// "aqesim", ...) and a zero scale are normalized.
func OpenEngine(spec EngineSpec) (Engine, error) { return engine.Open(spec) }

// The run API: RunSpec declares a robust-design run (engine, metric,
// designer portfolio, loop options, workload); StartRun executes it
// asynchronously and returns a RunHandle with status, cancellation, await,
// and access to the run's event stream, spans, and report. Guard.Design and
// Guard.DesignWithTrace are implemented on the same loop, so both paths
// yield bit-identical designs, traces, and events for the same spec.
type (
	// RunSpec declares one robust-design run.
	RunSpec = serve.RunSpec
	// RunHandle is a running (or finished) asynchronous design run.
	RunHandle = serve.RunHandle
	// RunStatus is a RunHandle lifecycle state.
	RunStatus = serve.RunStatus

	// AdvisorServer is the multi-tenant robust-design advisor server behind
	// cmd/cliffguardd: tenants, async runs, the /v1 HTTP API, cross-tenant
	// unit-cost sharing, and graceful drain (Shutdown).
	AdvisorServer = serve.Server
	// ServerConfig configures an AdvisorServer.
	ServerConfig = serve.Config
)

// RunHandle lifecycle states.
const (
	RunQueued    = serve.StatusQueued
	RunRunning   = serve.StatusRunning
	RunDone      = serve.StatusDone
	RunFailed    = serve.StatusFailed
	RunCancelled = serve.StatusCancelled
)

// StartRun validates the spec and launches the run asynchronously.
func StartRun(ctx context.Context, spec RunSpec) (*RunHandle, error) {
	return serve.StartRun(ctx, spec)
}

// NewAdvisorServer builds the multi-tenant advisor server. Start it with
// Start(addr) (or mount Handler() yourself) and stop it with Shutdown.
func NewAdvisorServer(cfg ServerConfig) *AdvisorServer { return serve.NewServer(cfg) }

// ParseWorkload parses a SQL-per-line stream (optionally timestamp-tab
// prefixed, the cmd/wlgen format) against the schema, assigning query IDs
// sequentially from firstID. It is the shared ingestion path of the
// cliffguard CLI and the cliffguardd workload endpoint, built on
// IngestReader: duplicate statements fold into weighted items, so resident
// memory is O(distinct statements) at any log size.
func ParseWorkload(s *Schema, r io.Reader, firstID int64) (*Workload, int, error) {
	return serve.ParseWorkload(s, r, firstID)
}

// The streaming ingestion API (internal/ingest): query logs stream through
// the parser in chunks and duplicate statements fold into single weighted
// items keyed by full structural identity, so a million-query log with a few
// thousand distinct templates occupies a few thousand items. The folded
// workload's frozen frequency vectors are bit-identical to the naive
// one-item-per-statement parse (the workload package's two-phase
// normalization guarantees it), so folding is invisible to the robust loop.
type (
	// IngestOptions configure a streaming ingestion pass (first query ID,
	// statement size cap, folding escape hatch, metrics registry).
	IngestOptions = ingest.Options
	// IngestStats tallies one ingestion pass: statements parsed (Streamed),
	// distinct folded items (Templates), and unparseable statements
	// (Skipped).
	IngestStats = ingest.Stats
)

// IngestReader streams SQL statements from r against the schema, folding
// duplicates. The grammar is a superset of the cmd/wlgen SQL-per-line
// format: multi-line ';'-terminated statements, optional RFC3339+tab
// timestamps, blank lines and "--" comments.
func IngestReader(s *Schema, r io.Reader, opts IngestOptions) (*Workload, IngestStats, error) {
	return ingest.Reader(s, r, opts)
}

// IngestFile is IngestReader over one log file.
func IngestFile(s *Schema, path string, opts IngestOptions) (*Workload, IngestStats, error) {
	return ingest.File(s, path, opts)
}

// IngestDir ingests every regular non-hidden file in dir in sorted name
// order as one continuous log, folding duplicates across file boundaries.
func IngestDir(s *Schema, dir string, opts IngestOptions) (*Workload, IngestStats, error) {
	return ingest.Dir(s, dir, opts)
}

// LoadWorkloadDir loads a self-describing workload directory:
// dir/schema.sql (DDL parsed by ParseSchemaSQL) plus dir/queries/ (a log
// directory) or dir/queries.sql (a single log).
func LoadWorkloadDir(dir string, opts IngestOptions) (*Schema, *Workload, IngestStats, error) {
	return ingest.Load(dir, opts)
}

// IsWorkloadDir reports whether path looks like a LoadWorkloadDir layout
// (a directory containing schema.sql).
func IsWorkloadDir(path string) bool { return ingest.IsWorkloadDir(path) }

// ParseSchemaSQL parses a CREATE TABLE DDL script into a Schema: per table
// `CREATE TABLE name (col TYPE [CARDINALITY n], ...) [ROWS n] [FACT];`.
func ParseSchemaSQL(ddl string) (*Schema, error) { return sqlparse.ParseSchema(ddl) }
