package cliffguard

import (
	"cliffguard/internal/core"
	"cliffguard/internal/online"
)

// The online API (internal/online): a sliding-window workload accumulator
// plus a drift-triggered re-design controller. The window absorbs a query
// stream into a count-bucketed ring; the controller measures
// delta(W_window, W_designed) with the run's own distance metric and — when
// the drift exceeds a configured fraction of Gamma — re-runs the robust loop
// warm: seeded with the incumbent design (Options.InitialDesign), and with
// its cost model reading the unit costs the previous run computed (the
// controller wraps OnlineConfig.Cost; OnlineConfig.DisableWarmStart turns
// that off), so a re-design over an overlapping window repeats almost no
// cost-model calls while producing bit-identical designs to a cold run. A safety
// acceptance rule guarantees a published design never regresses the
// worst-case neighborhood cost vs the incumbent on the current window.
type (
	// OnlineWindow is the count-bucketed sliding workload accumulator.
	OnlineWindow = online.Window
	// OnlineWindowConfig sizes the window (ring buckets x bucket size).
	OnlineWindowConfig = online.WindowConfig
	// OnlineWindowStats summarizes a window's traffic.
	OnlineWindowStats = online.WindowStats
	// OnlineConfig assembles a drift-triggered re-design controller.
	OnlineConfig = online.Config
	// OnlineController owns one workload's online state: window, incumbent
	// design, the previous run's unit costs, drift and safety counters.
	OnlineController = online.Controller
	// OnlineDecision reports what one Observe call did (accepted? drift
	// checked? fired?).
	OnlineDecision = online.Decision
	// OnlineResult is the outcome of one online re-design: the candidate,
	// the safety rule's verdict, and the worst-case costs it compared.
	OnlineResult = online.Result
	// OnlineStatus is a point-in-time controller summary.
	OnlineStatus = online.Status

	// RunStats are one robust run's scalar outcomes (worst-case costs of
	// the initial competitors and the returned design, online warm-start
	// hits) — what the safety rule reads off a seeded run.
	RunStats = core.RunStats
)

// ErrRedesignInProgress is returned by OnlineController.Redesign while a
// previous re-design is still running.
var ErrRedesignInProgress = online.ErrRedesignInProgress

// NewOnlineWindow returns an empty sliding window. met may be nil.
func NewOnlineWindow(cfg OnlineWindowConfig, met *Metrics) *OnlineWindow {
	return online.NewWindow(cfg, met)
}

// NewOnlineController validates the config and returns a controller with an
// empty window. Options.Gamma must be > 0.
func NewOnlineController(cfg OnlineConfig) (*OnlineController, error) {
	return online.New(cfg)
}
