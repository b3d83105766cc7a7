package core

import (
	"context"
	"errors"
	"sync"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// RunStats are a run's scalar outcomes beyond the design itself: the
// worst-case costs of the initial competitors and of the returned design.
// All cost fields are worst-case costs over the run's sampled
// Gamma-neighborhood; they are meaningful only for Gamma > 0 (a Gamma = 0
// run never samples a neighborhood and returns zero stats).
type RunStats struct {
	// NominalWorst is the initial nominal design's worst-case cost.
	NominalWorst float64
	// IncumbentScored reports that Options.InitialDesign was set and was
	// scored on the initial neighborhood pass; IncumbentWorst is then its
	// worst-case cost. (An incumbent whose every workload is uncostable is
	// skipped and left unscored.)
	IncumbentScored bool
	IncumbentWorst  float64
	// SeededFromIncumbent reports that the incumbent beat the nominal
	// design and the loop started from it.
	SeededFromIncumbent bool
	// FinalWorst is the returned design's worst-case cost. When the run was
	// seeded, FinalWorst <= IncumbentWorst by construction: the loop starts
	// from the better of the two initial designs and only ever accepts
	// strictly improving moves.
	FinalWorst float64
	// WarmHits is always 0: no run reads an earlier run's unit costs through
	// a memo of its own. It stays while perfbench reads it (its
	// evalcache.warm_hits metric; ROADMAP item 13 retires both).
	WarmHits uint64
	// UniverseQueries is the number of distinct queries the run numbered in
	// its neighborhood; UniverseCells counts the unit-cost entries its live
	// evaluation passes filled, one per (query, scored design).
	UniverseQueries int
	UniverseCells   uint64
}

// RunState is the lifecycle state of one asynchronous robust-design run.
type RunState string

const (
	// RunRunning: the loop goroutine is executing.
	RunRunning RunState = "running"
	// RunDone: the loop finished and produced a design.
	RunDone RunState = "done"
	// RunFailed: the loop aborted with a non-cancellation error.
	RunFailed RunState = "failed"
	// RunCancelled: the loop aborted because its context was cancelled
	// (Cancel, a parent context, or a deadline).
	RunCancelled RunState = "cancelled"
)

// RunHandle is a running (or finished) robust-design job: the asynchronous
// form of DesignWithTrace. Start launches the loop on its own goroutine and
// returns immediately; the handle exposes status, cancellation, and the
// results once the loop finishes. All methods are safe for concurrent use.
//
// DesignWithTrace is itself implemented as Start followed by Await, so the
// synchronous and job-oriented entry points can never drift apart: same loop,
// same determinism guarantees, same outputs.
type RunHandle struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  RunState
	design *designer.Design
	traces []Trace
	stats  RunStats
	err    error
}

// Start launches the robust loop asynchronously and returns its handle. The
// loop observes ctx exactly as DesignWithTrace does: cancelling ctx (or
// calling RunHandle.Cancel) aborts it promptly between and inside
// neighborhood evaluations. A nil ctx is treated as context.Background().
func (cg *CliffGuard) Start(ctx context.Context, w0 *workload.Workload) *RunHandle {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	h := &RunHandle{cancel: cancel, done: make(chan struct{}), state: RunRunning}
	go func() {
		defer cancel()
		d, traces, stats, err := cg.run(runCtx, w0)
		h.finish(d, traces, stats, err)
	}()
	return h
}

func (h *RunHandle) finish(d *designer.Design, traces []Trace, stats RunStats, err error) {
	h.mu.Lock()
	h.design, h.traces, h.stats, h.err = d, traces, stats, err
	switch {
	case err == nil:
		h.state = RunDone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		h.state = RunCancelled
	default:
		h.state = RunFailed
	}
	h.mu.Unlock()
	close(h.done)
}

// State returns the run's current lifecycle state.
func (h *RunHandle) State() RunState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Cancel aborts the run. It is idempotent and a no-op once the run finished.
func (h *RunHandle) Cancel() { h.cancel() }

// Done returns a channel closed when the run finishes (in any terminal state).
func (h *RunHandle) Done() <-chan struct{} { return h.done }

// Await blocks until the run finishes and returns its results. The ctx bounds
// the wait only — it does not cancel the run itself (use Cancel for that); if
// it expires first, Await returns ctx.Err() and the run keeps going.
func (h *RunHandle) Await(ctx context.Context) (*designer.Design, []Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-h.done:
		return h.Result()
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// Result returns the run's outcome without blocking. Before the run finishes
// it returns (nil, nil, nil) with State still RunRunning; after Done is
// closed it returns the design, traces, and error exactly as DesignWithTrace
// would have.
func (h *RunHandle) Result() (*designer.Design, []Trace, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.design, h.traces, h.err
}

// Stats returns the run's scalar outcomes. Zero until the run finishes.
func (h *RunHandle) Stats() RunStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}
