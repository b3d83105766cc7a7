package report

import (
	"fmt"
	"math"
)

// Thresholds configure the A/B regression gate of Compare. Percentage fields
// bound the allowed relative increase of a metric where bigger is worse;
// absolute fields bound the allowed count increase. A zero Thresholds value
// is valid (everything must be no worse); DefaultThresholds gives each gate
// a little slack.
type Thresholds struct {
	// WorstCasePct bounds the final worst-case cost increase, in percent.
	WorstCasePct float64 `json:"worst_case_pct"`
	// EvalsPct bounds the neighborhood-evaluation count increase, in percent.
	EvalsPct float64 `json:"evals_pct"`
	// DesignerCalls bounds the absolute increase in designer invocations.
	DesignerCalls int `json:"designer_calls"`
	// Iterations bounds the absolute increase in loop iterations.
	Iterations int `json:"iterations"`
	// WallPct bounds the wall-clock increase, in percent. It is only applied
	// when BOTH runs carry span streams; the other gates are deterministic.
	WallPct float64 `json:"wall_pct"`
}

// DefaultThresholds is the gate used by `cliffreport diff` unless overridden:
// 1% on worst-case cost, 10% on evaluation count, no extra designer calls or
// iterations, and 50% on wall clock (timing on shared CI is noisy).
func DefaultThresholds() Thresholds {
	return Thresholds{WorstCasePct: 1, EvalsPct: 10, DesignerCalls: 0, Iterations: 0, WallPct: 50}
}

// DiffRow is one compared metric.
type DiffRow struct {
	Metric   string  `json:"metric"`
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	DeltaPct float64 `json:"delta_pct"`
	// Gated rows carry the human-readable limit; informational rows don't.
	Limit     string `json:"limit,omitempty"`
	Regressed bool   `json:"regressed"`
}

// Diff is the outcome of comparing two runs.
type Diff struct {
	Rows        []DiffRow `json:"rows"`
	Regressions []string  `json:"regressions,omitempty"`
	Regressed   bool      `json:"regressed"`
}

// deltaPct is the relative change in percent; 0 when the old value is 0.
func deltaPct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / math.Abs(old) * 100
}

// Compare diffs two summaries under the thresholds: metric rows where bigger
// is worse regress when the increase exceeds its limit. Identical runs never
// regress; informational rows (acceptance rate, cache hit ratio, budgets
// from the metrics snapshot) are reported but not gated.
func Compare(oldS, newS *Summary, th Thresholds) *Diff {
	d := &Diff{}
	fail := func(format string, args ...any) {
		d.Regressions = append(d.Regressions, fmt.Sprintf(format, args...))
		d.Regressed = true
	}
	gatedPct := func(metric string, old, new, limitPct float64) {
		row := DiffRow{
			Metric: metric, Old: old, New: new,
			DeltaPct: deltaPct(old, new),
			Limit:    fmt.Sprintf("+%g%%", limitPct),
		}
		if row.DeltaPct > limitPct {
			row.Regressed = true
			fail("%s regressed %.2f%% (limit +%g%%): %g -> %g", metric, row.DeltaPct, limitPct, old, new)
		}
		d.Rows = append(d.Rows, row)
	}
	gatedAbs := func(metric string, old, new, limit int) {
		row := DiffRow{
			Metric: metric, Old: float64(old), New: float64(new),
			DeltaPct: deltaPct(float64(old), float64(new)),
			Limit:    fmt.Sprintf("+%d", limit),
		}
		if new-old > limit {
			row.Regressed = true
			fail("%s grew by %d (limit +%d): %d -> %d", metric, new-old, limit, old, new)
		}
		d.Rows = append(d.Rows, row)
	}
	info := func(metric string, old, new float64) {
		d.Rows = append(d.Rows, DiffRow{Metric: metric, Old: old, New: new, DeltaPct: deltaPct(old, new)})
	}

	gatedPct("final_worst_case_ms", oldS.FinalWorstCase, newS.FinalWorstCase, th.WorstCasePct)
	gatedAbs("iterations", oldS.Iterations, newS.Iterations, th.Iterations)
	gatedAbs("designer_invocations", oldS.DesignerInvocations, newS.DesignerInvocations, th.DesignerCalls)
	gatedPct("neighbor_evals", float64(oldS.NeighborEvals), float64(newS.NeighborEvals), th.EvalsPct)
	info("initial_worst_case_ms", oldS.InitialWorstCase, newS.InitialWorstCase)
	info("acceptance_rate", oldS.AcceptanceRate, newS.AcceptanceRate)
	info("uncostable_evals", float64(oldS.UncostableEvals), float64(newS.UncostableEvals))

	if oldS.HasSpans && newS.HasSpans {
		gatedPct("wall_ms", oldS.WallMs, newS.WallMs, th.WallPct)
		for _, name := range newS.phaseNames() {
			if o, ok := oldS.PhaseMs[name]; ok {
				info("wall_"+name+"_ms", o.TotalMs, newS.PhaseMs[name].TotalMs)
			}
		}
	}
	if oldS.HasMetrics && newS.HasMetrics {
		info("costmodel_calls", float64(oldS.CostModelCalls), float64(newS.CostModelCalls))
		for _, name := range sortedKeys(newS.CacheHitRatio) {
			if ov, ok := oldS.CacheHitRatio[name]; ok {
				info("cache_hit_ratio_"+name, ov, newS.CacheHitRatio[name])
			}
		}
	}
	return d
}

// floatsClose compares with relative tolerance 1e-9 (report math is pure
// float64 arithmetic over decoded values; cross-platform drift is zero, this
// tolerance only absorbs JSON round-trip formatting).
func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// Check compares the deterministic fields of a computed summary against an
// expected one and returns the mismatches (empty means the check passed).
// Wall-clock fields (WallMs, PhaseMs, Latency) are deliberately excluded:
// the golden fixture's spans replay with this machine's timings.
func Check(got, want *Summary) []string {
	var bad []string
	mism := func(field string, g, w any) {
		bad = append(bad, fmt.Sprintf("%s: got %v, want %v", field, g, w))
	}
	intEq := func(field string, g, w int) {
		if g != w {
			mism(field, g, w)
		}
	}
	floatEq := func(field string, g, w float64) {
		if !floatsClose(g, w) {
			mism(field, g, w)
		}
	}
	intEq("events", got.Events, want.Events)
	floatEq("gamma", got.Gamma, want.Gamma)
	intEq("samples_requested", got.SamplesRequested, want.SamplesRequested)
	intEq("samples_produced", got.SamplesProduced, want.SamplesProduced)
	intEq("iterations", got.Iterations, want.Iterations)
	intEq("accepted", got.Accepted, want.Accepted)
	intEq("rejected", got.Rejected, want.Rejected)
	floatEq("initial_worst_case", got.InitialWorstCase, want.InitialWorstCase)
	floatEq("final_worst_case", got.FinalWorstCase, want.FinalWorstCase)
	intEq("neighbor_evals", got.NeighborEvals, want.NeighborEvals)
	intEq("uncostable_evals", got.UncostableEvals, want.UncostableEvals)
	intEq("designer_invocations", got.DesignerInvocations, want.DesignerInvocations)
	if fmt.Sprint(got.Designers) != fmt.Sprint(want.Designers) {
		mism("designers", got.Designers, want.Designers)
	}
	for phase, w := range want.EvalsByPhase {
		if g := got.EvalsByPhase[phase]; g != w {
			mism("evals_by_phase["+phase+"]", g, w)
		}
	}
	for phase, g := range got.EvalsByPhase {
		if _, ok := want.EvalsByPhase[phase]; !ok && g != 0 {
			mism("evals_by_phase["+phase+"]", g, 0)
		}
	}
	if len(got.Convergence) != len(want.Convergence) {
		mism("convergence points", len(got.Convergence), len(want.Convergence))
		return bad
	}
	for i, w := range want.Convergence {
		g := got.Convergence[i]
		if g.Iteration != w.Iteration || g.Improved != w.Improved ||
			!floatsClose(g.Alpha, w.Alpha) || !floatsClose(g.WorstCase, w.WorstCase) ||
			!floatsClose(g.CandidateCost, w.CandidateCost) {
			mism(fmt.Sprintf("convergence[%d]", i), g, w)
		}
	}
	return bad
}
