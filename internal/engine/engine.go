// Package engine collapses the per-engine constructor zoo behind one
// spec-driven entry point: Open(Spec) returns an Engine — a cost model plus
// the engine-specific plumbing every caller previously had to wire by hand
// (schema access, the nominal designer for a storage budget, metrics
// instrumentation). The facade's OpenEngine, cliffguardd tenant configs,
// the cliffguard CLI and RunSpec all speak Spec.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"cliffguard/internal/aqesim"
	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/rowsim"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// Engine kinds accepted by Spec.Kind (aliases in parentheses are normalized).
const (
	// KindVertica is the columnar sorted-projection simulator ("vertica",
	// "vertsim").
	KindVertica = "vertica"
	// KindRowStore is the row-store index+matview simulator ("rowstore",
	// "rowsim", "dbmsx").
	KindRowStore = "rowstore"
	// KindApprox is the approximate-query stratified-sample simulator
	// ("approx", "aqesim", "aqe").
	KindApprox = "approx"
)

// Spec declares which engine to open and over what schema. It is the single
// engine-construction surface: JSON-friendly (only the Kind/Scale pair is
// needed for the canonical warehouse schemas, which is what cliffguardd
// tenant configs send over the wire), and complete (library callers can pass
// an explicit Schema or a Dataset for executor-backed engines).
type Spec struct {
	// Kind selects the simulator: "vertica", "rowstore" or "approx"
	// (aliases: vertsim, rowsim, dbmsx, aqesim, aqe).
	Kind string `json:"kind"`
	// Scale is the warehouse scale factor used when Schema is nil
	// (datagen.Warehouse(Scale)); 0 means 1.
	Scale int64 `json:"scale,omitempty"`
	// Schema overrides the canonical warehouse schema (library callers only;
	// not wire-serializable).
	Schema *schema.Schema `json:"-"`
	// Data, when set, opens an executor-backed engine over the dataset
	// (vertica and rowstore only). Its schema wins over Schema/Scale.
	Data *datagen.Dataset `json:"-"`
}

// Normalize canonicalizes the kind (resolving aliases, case-insensitive) and
// defaults Scale to 1. It errors on unknown kinds and on Data for engines
// without an executor.
func (s Spec) Normalize() (Spec, error) {
	switch strings.ToLower(strings.TrimSpace(s.Kind)) {
	case KindVertica, "vertsim", "":
		s.Kind = KindVertica
	case KindRowStore, "rowsim", "dbmsx":
		s.Kind = KindRowStore
	case KindApprox, "aqesim", "aqe":
		s.Kind = KindApprox
	default:
		return s, fmt.Errorf("engine: unknown kind %q (want %s, %s or %s)",
			s.Kind, KindVertica, KindRowStore, KindApprox)
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Data != nil && s.Kind == KindApprox {
		return s, fmt.Errorf("engine: %s has no executor; drop the dataset", KindApprox)
	}
	return s, nil
}

// Engine is an opened engine simulator: the cost model all of CliffGuard
// consumes, plus the engine-specific plumbing callers previously reached six
// different constructors for. Implementations wrap exactly one simulator
// instance (vertsim.DB, rowsim.DB or aqesim.DB), recoverable via Unwrap.
type Engine interface {
	designer.CostModel

	// Kind returns the normalized engine kind.
	Kind() string
	// Schema returns the schema the engine was opened over.
	Schema() *schema.Schema
	// NominalDesigner returns the engine's native nominal designer (the
	// paper's ExistingDesigner) with the given storage budget. Every returned
	// designer also implements the CandidateProvider pattern used by the
	// AutoAdmin and ILP portfolio members.
	NominalDesigner(budgetBytes int64) designer.Designer
	// Instrument attaches a metrics registry to the underlying simulator
	// (cost-model call counters, per-engine memo cache stats).
	Instrument(m *obs.Metrics)
	// Class returns the cost-model class fingerprint: engines with equal
	// class values are interchangeable pure cost functions (same kind, same
	// schema, cost-model-only), so memoized unit costs may be shared across
	// them. Executor-backed (dataset-carrying) engines get a unique class —
	// never shared — because their knobs are caller-mutable.
	Class() uint64
	// Unwrap returns the underlying simulator (*vertsim.DB, *rowsim.DB or
	// *aqesim.DB) for callers that need engine-specific surface (executors,
	// tuning knobs).
	Unwrap() any
}

// Open builds the engine the spec names. The spec is normalized first, so
// aliases and a zero scale are fine.
func Open(spec Spec) (Engine, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	sch := spec.Schema
	if spec.Data != nil {
		sch = spec.Data.Schema
	}
	if sch == nil {
		sch = datagen.Warehouse(spec.Scale)
	}
	class := classFingerprint(spec.Kind, sch, spec.Data != nil)
	switch spec.Kind {
	case KindVertica:
		db := vertsim.Open(sch)
		if spec.Data != nil {
			db = vertsim.OpenWithData(spec.Data)
		}
		return &verticaEngine{base{spec.Kind, sch, class}, db}, nil
	case KindRowStore:
		db := rowsim.Open(sch)
		if spec.Data != nil {
			db = rowsim.OpenWithData(spec.Data)
		}
		return &rowStoreEngine{base{spec.Kind, sch, class}, db}, nil
	case KindApprox:
		return &approxEngine{base{spec.Kind, sch, class}, aqesim.Open(sch)}, nil
	}
	return nil, fmt.Errorf("engine: unhandled kind %q", spec.Kind) // unreachable after Normalize
}

// base carries the kind/schema/class identity shared by all engine wrappers.
type base struct {
	kind  string
	sch   *schema.Schema
	class uint64
}

func (b *base) Kind() string           { return b.kind }
func (b *base) Schema() *schema.Schema { return b.sch }
func (b *base) Class() uint64          { return b.class }

type verticaEngine struct {
	base
	db *vertsim.DB
}

func (e *verticaEngine) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	return e.db.Cost(ctx, q, d)
}
func (e *verticaEngine) NominalDesigner(budgetBytes int64) designer.Designer {
	return vertsim.NewDesigner(e.db, budgetBytes)
}
func (e *verticaEngine) Instrument(m *obs.Metrics) { e.db.Instrument(m) }
func (e *verticaEngine) Unwrap() any               { return e.db }

type rowStoreEngine struct {
	base
	db *rowsim.DB
}

func (e *rowStoreEngine) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	return e.db.Cost(ctx, q, d)
}
func (e *rowStoreEngine) NominalDesigner(budgetBytes int64) designer.Designer {
	return rowsim.NewDesigner(e.db, budgetBytes)
}
func (e *rowStoreEngine) Instrument(m *obs.Metrics) { e.db.Instrument(m) }
func (e *rowStoreEngine) Unwrap() any               { return e.db }

type approxEngine struct {
	base
	db *aqesim.DB
}

func (e *approxEngine) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	return e.db.Cost(ctx, q, d)
}
func (e *approxEngine) NominalDesigner(budgetBytes int64) designer.Designer {
	return aqesim.NewDesigner(e.db, budgetBytes)
}
func (e *approxEngine) Instrument(m *obs.Metrics) { e.db.Instrument(m) }
func (e *approxEngine) Unwrap() any               { return e.db }

// dataNonce makes every executor-backed engine's class unique: dataset-backed
// simulators expose caller-mutable knobs, so their memoized unit costs must
// never be shared.
var dataNonce atomic.Uint64

// classFingerprint hashes the cost-model identity: engine kind plus the full
// schema declaration (tables, row counts, fact flags, columns with types and
// cardinalities). Cost-model-only engines over equal schemas collide — by
// design: that is the sharing key of the serving layer's cross-tenant memo.
func classFingerprint(kind string, s *schema.Schema, hasData bool) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	str := func(v string) {
		for i := 0; i < len(v); i++ {
			mix(v[i])
		}
		mix(0xff)
	}
	num := func(v int64) {
		for shift := 0; shift < 64; shift += 8 {
			mix(byte(uint64(v) >> shift))
		}
	}
	str(kind)
	for _, t := range s.Tables() {
		str(t.Name)
		num(t.Rows)
		if t.Fact {
			num(1)
		} else {
			num(0)
		}
		for _, c := range t.Columns {
			str(c.Name)
			num(int64(c.ID))
			num(int64(c.Type))
			num(c.Cardinality)
		}
	}
	if hasData {
		num(int64(dataNonce.Add(1)))
		num(-1)
	}
	if h == 0 {
		h = 1
	}
	return h
}
