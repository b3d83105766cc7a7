// Package obs is the instrumentation layer of the robust-design loop: typed
// events describing what the loop is doing (Observer), an atomic-counter
// metrics registry describing how fast it is doing it (Metrics), and the
// sinks and exporters that surface both — a JSONL event stream, a terminal
// progress reporter, and an HTTP endpoint serving Prometheus text and
// MetricsSnapshot JSON.
//
// Design constraints, in order:
//
//  1. A nil Observer and a nil *Metrics must cost ~zero on the hot path.
//     Every emission point in core and the engines is guarded by a nil
//     check; there are no allocations and no clock reads when nothing
//     listens (BenchmarkNeighborhoodEval pins this).
//  2. Observers must be race-clean: NeighborEvaluated events are emitted
//     concurrently by the parallel evaluator's workers, so every Observer
//     implementation in this package serializes internally, and the
//     Observer contract requires the same of user implementations when
//     Options.Parallelism != 1.
//  3. Events are deterministic: they carry no wall-clock timestamps and no
//     goroutine identity. For a fixed seed, two runs produce the same event
//     multiset at any parallelism, ordered identically except for the
//     within-pass order of NeighborEvaluated. Wall time lives in Metrics
//     (histograms) and in the sinks' envelopes, never in the events
//     themselves — this is what lets []Trace be derived from the event
//     stream without breaking bit-identical determinism.
package obs

// Kind identifies an event type; it is the "type" field of the JSONL stream.
type Kind string

// The event taxonomy of the robust loop.
const (
	KindIterationStart      Kind = "iteration_start"
	KindIterationEnd        Kind = "iteration_end"
	KindNeighborhoodSampled Kind = "neighborhood_sampled"
	KindNeighborEvaluated   Kind = "neighbor_evaluated"
	KindMoveAccepted        Kind = "move_accepted"
	KindMoveRejected        Kind = "move_rejected"
	KindDesignerInvoked     Kind = "designer_invoked"
)

// Event is one typed instrumentation event from the robust loop.
type Event interface {
	Kind() Kind
}

// Observer receives events. Implementations MUST be safe for concurrent
// OnEvent calls: the parallel neighborhood evaluator emits NeighborEvaluated
// from its worker goroutines. OnEvent is on the loop's critical path — slow
// observers slow the design; buffer or drop inside the observer if needed.
type Observer interface {
	OnEvent(Event)
}

// Evaluation phases carried by NeighborEvaluated.Phase.
const (
	// PhaseInitial is the worst-case scan of the initial nominal design,
	// before the first iteration (NeighborEvaluated.Iteration is -1).
	PhaseInitial = "initial"
	// PhaseRank is the per-iteration worst-neighbor ranking scan.
	PhaseRank = "rank"
	// PhaseCandidate is the per-iteration worst-case scan of the candidate
	// design produced by the robust local move.
	PhaseCandidate = "candidate"
)

// IterationStart opens one iteration of Algorithm 2.
type IterationStart struct {
	Iteration int     `json:"iteration"`
	Alpha     float64 `json:"alpha"`
	// WorstCase is the incumbent design's worst-case cost entering the
	// iteration.
	WorstCase float64 `json:"worst_case"`
}

// IterationEnd closes one iteration. Its fields are exactly the fields of
// core.Trace: the trace slice returned by DesignWithTrace is built from
// these events, so an IterationEnd stream and a []Trace are the same data.
type IterationEnd struct {
	Iteration     int     `json:"iteration"`
	Alpha         float64 `json:"alpha"`
	WorstCase     float64 `json:"worst_case"`
	CandidateCost float64 `json:"candidate_cost"`
	Improved      bool    `json:"improved"`
}

// NeighborhoodSampled reports the Gamma-neighborhood draw (Algorithm 2,
// line 2). Produced counts the sampled neighbors plus the target workload
// itself, which is always part of the uncertainty set.
type NeighborhoodSampled struct {
	Gamma     float64 `json:"gamma"`
	Requested int     `json:"requested"`
	Produced  int     `json:"produced"`
}

// NeighborEvaluated reports one workload's f(W, D) evaluation inside a
// neighborhood pass. Emitted from worker goroutines: within one (iteration,
// phase) pass the emission order is scheduling-dependent, but the multiset
// of events — and every field of each event, Index included — is
// deterministic for a fixed seed at any parallelism.
type NeighborEvaluated struct {
	Iteration int    `json:"iteration"` // -1 during PhaseInitial
	Phase     string `json:"phase"`
	// Index is the workload's position in the sampled neighborhood (the
	// target workload is the last index).
	Index int     `json:"index"`
	Cost  float64 `json:"cost"`
	// Uncostable marks workloads in which no query is inside the cost
	// model's supported subset; Cost is 0 for them.
	Uncostable bool `json:"uncostable,omitempty"`
}

// MoveAccepted reports an improving robust local move: the candidate design
// replaced the incumbent.
type MoveAccepted struct {
	Iteration int     `json:"iteration"`
	Alpha     float64 `json:"alpha"`
	WorstCase float64 `json:"worst_case"` // the new incumbent's worst case
	Previous  float64 `json:"previous"`   // the replaced incumbent's worst case
}

// MoveRejected reports a non-improving robust local move: the incumbent
// survives and alpha backtracks.
type MoveRejected struct {
	Iteration     int     `json:"iteration"`
	Alpha         float64 `json:"alpha"`
	CandidateCost float64 `json:"candidate_cost"`
	WorstCase     float64 `json:"worst_case"` // the surviving incumbent's worst case
}

// DesignerInvoked reports one black-box call to the nominal designer.
type DesignerInvoked struct {
	Iteration int    `json:"iteration"` // -1 for the initial nominal design
	Designer  string `json:"designer"`
	// Queries is the size of the (possibly moved) input workload.
	Queries int `json:"queries"`
	// Structures and SizeBytes describe the returned design.
	Structures int   `json:"structures"`
	SizeBytes  int64 `json:"size_bytes"`
}

func (IterationStart) Kind() Kind      { return KindIterationStart }
func (IterationEnd) Kind() Kind        { return KindIterationEnd }
func (NeighborhoodSampled) Kind() Kind { return KindNeighborhoodSampled }
func (NeighborEvaluated) Kind() Kind   { return KindNeighborEvaluated }
func (MoveAccepted) Kind() Kind        { return KindMoveAccepted }
func (MoveRejected) Kind() Kind        { return KindMoveRejected }
func (DesignerInvoked) Kind() Kind     { return KindDesignerInvoked }
