package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Experiment results are exportable as CSV so the paper's plots can be
// regenerated with any plotting tool. Every writer emits a header row and
// one record per observation.

// WriteComparisonCSV exports a designer comparison (Figures 7, 10, 15):
// designer, averaged avg/max latency, per-window series, design time.
func WriteComparisonCSV(w io.Writer, results []DesignerResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"designer", "window", "avg_ms", "max_ms", "design_time_s", "deploy_bytes"}); err != nil {
		return err
	}
	for _, r := range results {
		// The summary row uses window = -1.
		if err := cw.Write([]string{
			r.Name, "-1", f(r.AvgMs), f(r.MaxMs),
			f(r.DesignTime.Seconds()), strconv.FormatInt(r.DeploySize, 10),
		}); err != nil {
			return err
		}
		for i := range r.PerWindowAvg {
			if err := cw.Write([]string{
				r.Name, strconv.Itoa(i), f(r.PerWindowAvg[i]), f(r.PerWindowMax[i]), "", "",
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable1CSV exports Table 1's drift statistics.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "min_delta", "max_delta", "avg_delta", "std_delta", "gaps"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Workload, f(r.Min), f(r.Max), f(r.Avg), f(r.Std), strconv.Itoa(r.Gaps),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteOverlapCSV exports Figure 5's overlap-vs-lag series.
func WriteOverlapCSV(w io.Writer, series []OverlapSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"window_days", "lag", "shared_fraction"}); err != nil {
		return err
	}
	for _, s := range series {
		for i, v := range s.ByLag {
			if err := cw.Write([]string{
				strconv.Itoa(s.WindowDays), strconv.Itoa(i + 1), f(v),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSoundnessCSV exports Figure 6's raw (distance, latency) points.
func WriteSoundnessCSV(w io.Writer, res *SoundnessResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"distance", "avg_ms"}); err != nil {
		return err
	}
	for _, p := range res.Points {
		if err := cw.Write([]string{f(p.Distance), f(p.AvgMs)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSweepCSV exports a parameter sweep (Figures 8, 9, 12, 13).
func WriteSweepCSV(w io.Writer, xLabel string, points []SweepPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{xLabel, "avg_ms", "max_ms"}); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write([]string{f(p.X), f(p.AvgMs), f(p.MaxMs)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAblationCSV exports Figure 11's distance-function comparison or the
// loop-variant ablation.
func WriteAblationCSV(w io.Writer, results []AblationResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"metric", "avg_ms", "max_ms"}); err != nil {
		return err
	}
	for _, r := range results {
		if err := cw.Write([]string{r.Metric, f(r.AvgMs), f(r.MaxMs)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTimingCSV exports Figure 14's offline-time comparison.
func WriteTimingCSV(w io.Writer, results []TimingResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"designer", "design_time_s", "deploy_time_s", "nominal_calls"}); err != nil {
		return err
	}
	for _, r := range results {
		if err := cw.Write([]string{
			r.Name,
			f(float64(r.DesignTime) / float64(time.Second)),
			f(float64(r.DeployTime) / float64(time.Second)),
			strconv.Itoa(r.NominalCalls),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WriteSamplerCSV exports the SAMPLER fast-path experiment.
func WriteSamplerCSV(w io.Writer, r *SamplerResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "draws", "fastpath", "slowpath",
		"fast_evals", "legacy_evals", "eval_reduction", "max_landing_err",
		"fast_ms", "legacy_ms", "speedup"}); err != nil {
		return err
	}
	if err := cw.Write([]string{
		r.Workload, strconv.Itoa(r.Draws),
		strconv.FormatUint(r.FastPath, 10), strconv.FormatUint(r.SlowPath, 10),
		strconv.FormatUint(r.FastEvals, 10), strconv.FormatUint(r.LegacyEvals, 10),
		f(r.EvalReduction), f(r.MaxLandingErr), f(r.FastMs), f(r.LegacyMs), f(r.Speedup),
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteEvalCSV exports the EVAL incremental-evaluation experiment.
func WriteEvalCSV(w io.Writer, r *EvalResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "samples", "iterations",
		"fast_cost_calls", "legacy_cost_calls", "call_reduction",
		"eval_fastpath", "eval_slowpath", "universe_queries", "universe_cells",
		"designs_match", "traces_match", "events_match",
		"fast_ms", "legacy_ms", "speedup"}); err != nil {
		return err
	}
	if err := cw.Write([]string{
		r.Workload, strconv.Itoa(r.Samples), strconv.Itoa(r.Iterations),
		strconv.FormatUint(r.FastCostCalls, 10), strconv.FormatUint(r.LegacyCostCalls, 10),
		f(r.CallReduction),
		strconv.FormatUint(r.FastPathEvals, 10), strconv.FormatUint(r.SlowPathEvals, 10),
		strconv.Itoa(r.UniverseQueries), strconv.FormatUint(r.UniverseCells, 10),
		strconv.FormatBool(r.DesignsMatch), strconv.FormatBool(r.TracesMatch),
		strconv.FormatBool(r.EventsMatch),
		f(r.FastMs), f(r.LegacyMs), f(r.Speedup),
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WritePortfolioCSV exports the PORTFOLIO designer-race experiment: one row
// per member plus one row for the portfolio itself.
func WritePortfolioCSV(w io.Writer, r *PortfolioResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"member", "cost_ms", "structures", "size_bytes",
		"design_ms", "winner", "le_best", "parallel_match", "ilp_exact", "ilp_nodes"}); err != nil {
		return err
	}
	for _, m := range r.Members {
		if err := cw.Write([]string{
			m.Name, f(m.CostMs), strconv.Itoa(m.Structures),
			strconv.FormatInt(m.SizeBytes, 10), f(m.DesignMs), "", "", "", "", "",
		}); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{
		"Portfolio", f(r.PortfolioCost), "", "", f(r.P1Ms),
		r.Winner, strconv.FormatBool(r.PortfolioLEBest),
		strconv.FormatBool(r.ParallelismMatch), strconv.FormatBool(r.ILPExact),
		strconv.Itoa(r.ILPNodes),
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteOnlineCSV exports the ONLINE drift-detect + warm-re-design experiment.
func WriteOnlineCSV(w io.Writer, r *OnlineResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "samples", "iterations",
		"observed", "evicted", "drift_checks", "drift_fires", "drift_fired",
		"redesigns", "published",
		"bootstrap_calls", "steady_warm_calls", "steady_cold_calls",
		"steady_warm_hits", "steady_match",
		"repeat_cold_calls", "repeat_warm_calls", "repeat_warm_hits",
		"repeat_match", "repeat_speedup_ge5", "safety_kept_incumbent",
		"cold_ms", "warm_ms", "speedup"}); err != nil {
		return err
	}
	if err := cw.Write([]string{
		r.Workload, strconv.Itoa(r.Samples), strconv.Itoa(r.Iterations),
		strconv.FormatUint(r.Observed, 10), strconv.FormatUint(r.Evicted, 10),
		strconv.FormatUint(r.DriftChecks, 10), strconv.FormatUint(r.DriftFires, 10),
		strconv.FormatBool(r.DriftFired),
		strconv.FormatUint(r.Redesigns, 10), strconv.FormatUint(r.Published, 10),
		strconv.FormatUint(r.BootstrapCalls, 10), strconv.FormatUint(r.SteadyWarmCalls, 10),
		strconv.FormatUint(r.SteadyColdCalls, 10), strconv.FormatUint(r.SteadyWarmHits, 10),
		strconv.FormatBool(r.SteadyMatch),
		strconv.FormatUint(r.RepeatColdCalls, 10), strconv.FormatUint(r.RepeatWarmCalls, 10),
		strconv.FormatUint(r.RepeatWarmHits, 10),
		strconv.FormatBool(r.RepeatMatch), strconv.FormatBool(r.RepeatSpeedupGE5),
		strconv.FormatBool(r.SafetyKeptIncumbent),
		f(r.ColdMs), f(r.WarmMs), f(r.Speedup),
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteScaleCSV exports the SCALE million-query streaming-ingestion
// experiment.
func WriteScaleCSV(w io.Writer, r *ScaleResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "log_lines", "base_lines",
		"streamed", "skipped", "templates", "frozen_len", "compression",
		"fold_identical", "counters_match",
		"iterations", "pooled_cost_calls",
		"ingest_ms", "design_ms", "heap_mb", "sys_mb"}); err != nil {
		return err
	}
	if err := cw.Write([]string{
		r.Workload, strconv.Itoa(r.LogLines), strconv.Itoa(r.BaseLines),
		strconv.Itoa(r.Streamed), strconv.Itoa(r.Skipped),
		strconv.Itoa(r.Templates), strconv.Itoa(r.FrozenLen), f(r.Compression),
		strconv.FormatBool(r.FoldIdentical), strconv.FormatBool(r.CountersMatch),
		strconv.Itoa(r.Iterations), strconv.FormatUint(r.PooledCostCalls, 10),
		f(r.IngestMs), f(r.DesignMs), f(r.HeapMB), f(r.SysMB),
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
