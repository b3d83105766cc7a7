package bench

import (
	"fmt"
	"io"
	"strings"
)

// PrintTable1 renders Table 1 in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %6s\n",
		"Workload", "Min delta", "Max delta", "Avg delta", "Std delta", "Gaps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.5f %12.5f %12.5f %12.5f %6d\n",
			r.Workload, r.Min, r.Max, r.Avg, r.Std, r.Gaps)
	}
}

// PrintComparison renders a Figure 7/10/15-style designer comparison.
func PrintComparison(w io.Writer, title string, results []DesignerResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-20s %14s %14s %14s\n", "Designer", "Avg Latency", "Max Latency", "Design Time")
	for _, r := range results {
		fmt.Fprintf(w, "%-20s %11.0f ms %11.0f ms %14s\n", r.Name, r.AvgMs, r.MaxMs, r.DesignTime.Round(1e6))
	}
	// The paper's headline ratios.
	var existing, cliff *DesignerResult
	for i := range results {
		switch results[i].Name {
		case "Existing":
			existing = &results[i]
		case "CliffGuard":
			cliff = &results[i]
		}
	}
	if existing != nil && cliff != nil && cliff.AvgMs > 0 && cliff.MaxMs > 0 {
		fmt.Fprintf(w, "CliffGuard vs Existing: avg %.1fx, max %.1fx\n",
			existing.AvgMs/cliff.AvgMs, existing.MaxMs/cliff.MaxMs)
	}
}

// PrintOverlap renders Figure 5's curves.
func PrintOverlap(w io.Writer, series []OverlapSeries) {
	for _, s := range series {
		var vals []string
		for _, v := range s.ByLag {
			vals = append(vals, fmt.Sprintf("%4.0f%%", v*100))
		}
		fmt.Fprintf(w, "win=%2dd: %s\n", s.WindowDays, strings.Join(vals, " "))
	}
}

// PrintSoundness renders Figure 6's distance-vs-latency relation, bucketed.
func PrintSoundness(w io.Writer, res *SoundnessResult, buckets int) {
	if buckets < 1 {
		buckets = 8
	}
	lo := res.Points[0].Distance
	hi := res.Points[len(res.Points)-1].Distance
	if hi <= lo {
		hi = lo + 1e-9
	}
	width := (hi - lo) / float64(buckets)
	type agg struct {
		sum float64
		n   int
	}
	bs := make([]agg, buckets)
	for _, p := range res.Points {
		i := int((p.Distance - lo) / width)
		if i >= buckets {
			i = buckets - 1
		}
		bs[i].sum += p.AvgMs
		bs[i].n++
	}
	fmt.Fprintf(w, "%-14s %14s %6s\n", "distance", "avg latency", "n")
	for i, b := range bs {
		if b.n == 0 {
			continue
		}
		fmt.Fprintf(w, "%.5f-%.5f %11.0f ms %6d\n", lo+float64(i)*width, lo+float64(i+1)*width, b.sum/float64(b.n), b.n)
	}
	fmt.Fprintf(w, "pearson=%.3f spearman=%.3f (n=%d points)\n", res.Pearson, res.Spearman, len(res.Points))
}

// PrintSweep renders a Figure 8/9/12/13-style sweep.
func PrintSweep(w io.Writer, xLabel string, points []SweepPoint) {
	fmt.Fprintf(w, "%-12s %14s %14s\n", xLabel, "Avg Latency", "Max Latency")
	for _, p := range points {
		fmt.Fprintf(w, "%-12.5g %11.0f ms %11.0f ms\n", p.X, p.AvgMs, p.MaxMs)
	}
}

// PrintAblation renders Figure 11's distance-function comparison.
func PrintAblation(w io.Writer, results []AblationResult) {
	fmt.Fprintf(w, "%-24s %14s %14s\n", "Distance fn", "Avg Latency", "Max Latency")
	for _, r := range results {
		fmt.Fprintf(w, "%-24s %11.0f ms %11.0f ms\n", r.Metric, r.AvgMs, r.MaxMs)
	}
}

// PrintTiming renders Figure 14's offline-time comparison.
func PrintTiming(w io.Writer, results []TimingResult) {
	fmt.Fprintf(w, "%-20s %14s %14s %8s\n", "Designer", "Design Time", "Deploy Time", "Calls")
	for _, r := range results {
		fmt.Fprintf(w, "%-20s %14s %14s %8d\n",
			r.Name, r.DesignTime.Round(1e6), r.DeployTime.Round(1e6), r.NominalCalls)
	}
}

// PrintLatencyMetric renders Figure 16's per-omega rank correlations.
func PrintLatencyMetric(w io.Writer, results []LatencyMetricResult) {
	for _, r := range results {
		fmt.Fprintf(w, "omega=%.2f: spearman=%.3f over %d points\n", r.Omega, r.Spearman, len(r.Points))
	}
}

// PrintSampler renders the SAMPLER fast-path experiment: the deterministic
// Distance-evaluation counters and the informational wall-clock ratio.
func PrintSampler(w io.Writer, r *SamplerResult) {
	fmt.Fprintf(w, "%-10s %6s %10s %10s %12s %12s %10s %12s\n",
		"Workload", "Draws", "FastPath", "SlowPath", "Fast evals", "Legacy evals", "Reduction", "Max land err")
	fmt.Fprintf(w, "%-10s %6d %10d %10d %12d %12d %9.1fx %12.2e\n",
		r.Workload, r.Draws, r.FastPath, r.SlowPath, r.FastEvals, r.LegacyEvals, r.EvalReduction, r.MaxLandingErr)
	fmt.Fprintf(w, "wall-clock: fast %.1f ms, legacy %.1f ms (%.2fx, informational)\n",
		r.FastMs, r.LegacyMs, r.Speedup)
}

// PrintEval renders the EVAL incremental-evaluation experiment: the
// deterministic cost-model-call counters, the fast/slow path split, the
// equivalence bits, and the informational wall-clock ratio.
func PrintEval(w io.Writer, r *EvalResult) {
	fmt.Fprintf(w, "%-10s %7s %5s %11s %12s %10s %10s %10s %10s %10s\n",
		"Workload", "Samples", "Iters", "Fast calls", "Legacy calls", "Reduction",
		"Fast evals", "Slow evals", "Queries", "Cells")
	fmt.Fprintf(w, "%-10s %7d %5d %11d %12d %9.1fx %10d %10d %10d %10d\n",
		r.Workload, r.Samples, r.Iterations, r.FastCostCalls, r.LegacyCostCalls,
		r.CallReduction, r.FastPathEvals, r.SlowPathEvals, r.UniverseQueries, r.UniverseCells)
	fmt.Fprintf(w, "equivalence: designs=%v traces=%v events=%v\n",
		r.DesignsMatch, r.TracesMatch, r.EventsMatch)
	fmt.Fprintf(w, "wall-clock: fast %.1f ms, legacy %.1f ms (%.2fx, informational)\n",
		r.FastMs, r.LegacyMs, r.Speedup)
}

// PrintPortfolio renders the PORTFOLIO designer-race experiment: each
// member's standalone cost, the portfolio's kept design, and the two
// determinism/safety bits the baseline gates on.
func PrintPortfolio(w io.Writer, r *PortfolioResult) {
	fmt.Fprintf(w, "%-16s %12s %8s %10s %10s\n",
		"Member", "Cost (ms)", "Structs", "Size (MB)", "Design ms")
	for _, m := range r.Members {
		fmt.Fprintf(w, "%-16s %12.3f %8d %10.1f %10.1f\n",
			m.Name, m.CostMs, m.Structures, float64(m.SizeBytes)/(1<<20), m.DesignMs)
	}
	fmt.Fprintf(w, "portfolio: cost %.3f ms, winner %s, <= best member: %v\n",
		r.PortfolioCost, r.Winner, r.PortfolioLEBest)
	fmt.Fprintf(w, "determinism: p=1 vs NumCPU identical=%v; ILP exact=%v (%d nodes)\n",
		r.ParallelismMatch, r.ILPExact, r.ILPNodes)
	fmt.Fprintf(w, "wall-clock: p1 %.1f ms, pN %.1f ms, overhead vs slowest member %.1f ms (informational)\n",
		r.P1Ms, r.PNMs, r.OverheadMs)
}

// PrintScale renders the SCALE million-query experiment: the streaming
// compression counters, the fold-identity bit, the design's cost-model calls,
// and the informational ingest/design wall-clock and memory columns.
func PrintScale(w io.Writer, r *ScaleResult) {
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %10s %12s\n",
		"Workload", "Lines", "Streamed", "Skipped", "Templates", "Frozen", "Compression")
	fmt.Fprintf(w, "%-10s %9d %9d %9d %9d %10d %11.1fx\n",
		r.Workload, r.LogLines, r.Streamed, r.Skipped, r.Templates, r.FrozenLen, r.Compression)
	fmt.Fprintf(w, "equivalence: fold=%v counters=%v (iters=%d)\n",
		r.FoldIdentical, r.CountersMatch, r.Iterations)
	fmt.Fprintf(w, "cost-model calls: %d\n", r.PooledCostCalls)
	fmt.Fprintf(w, "wall-clock: ingest %.1f ms, design %.1f ms; memory: heap %.1f MiB, sys %.1f MiB (informational)\n",
		r.IngestMs, r.DesignMs, r.HeapMB, r.SysMB)
}

// PrintOnline renders the ONLINE drift-detect + re-design experiment: the
// drift replay's counters and cost-model calls, and the safety bit.
func PrintOnline(w io.Writer, r *OnlineResult) {
	fmt.Fprintf(w, "%-10s %7s %5s %9s %9s %7s %6s %9s %9s\n",
		"Workload", "Samples", "Iters", "Observed", "Evicted", "Checks", "Fires", "Redesigns", "Published")
	fmt.Fprintf(w, "%-10s %7d %5d %9d %9d %7d %6d %9d %9d\n",
		r.Workload, r.Samples, r.Iterations, r.Observed, r.Evicted,
		r.DriftChecks, r.DriftFires, r.Redesigns, r.Published)
	fmt.Fprintf(w, "cost-model calls: bootstrap %d, re-designs %d\n", r.BootstrapCalls, r.SteadyCalls)
	fmt.Fprintf(w, "safety: injected regression kept incumbent=%v\n", r.SafetyKeptIncumbent)
}
