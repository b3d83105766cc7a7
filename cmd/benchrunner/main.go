// Command benchrunner regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index) and prints them in the paper's layout.
//
// Usage:
//
//	benchrunner -experiment all
//	benchrunner -experiment F7a,F8 -seed 42
//	benchrunner -experiment F8 -parallelism 4
//
// Experiment IDs: T1, F5, F6, F7a, F7b, F7c, F8, F9, F10, F11, F12, F13,
// F14, F15a, F15b, F16, plus ABL (this reproduction's CliffGuard loop
// ablation; see DESIGN.md Section 5), SAMPLER (the closed-form landing fast
// path), EVAL (the incremental-evaluation fast path), PORTFOLIO (the
// designer race: advisor vs AutoAdmin vs ILP-exact), SCALE (the
// million-query streaming-ingestion experiment), and ONLINE
// (the sliding-window drift-detect + incumbent-seeded re-design experiment).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cliffguard/internal/bench"
	"cliffguard/internal/datagen"
	"cliffguard/internal/obs"
	"cliffguard/internal/report"
	"cliffguard/internal/schema"
	"cliffguard/internal/wlgen"
)

// runner lazily generates workloads and scenarios so that running one
// experiment does not pay for the others.
type runner struct {
	schema *schema.Schema
	seed   int64
	gammaV float64 // Vertica-scenario Gamma
	gammaX float64 // DBMS-X-scenario Gamma
	par    int     // CliffGuard neighborhood-evaluation workers

	csvDir string

	observer obs.Observer // nil unless -events / -progress
	metrics  *obs.Metrics // nil unless -metrics-addr

	sets      map[string]*wlgen.Set
	scenarios map[string]*bench.Scenario
}

// csvOut opens the per-experiment CSV file, or returns nil when CSV export
// is off. write runs the exporter and closes the file.
func (r *runner) csvOut(id string, write func(w *os.File) error) {
	if r.csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(r.csvDir, id+".csv"))
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func (r *runner) set(name string) *wlgen.Set {
	if s, ok := r.sets[name]; ok {
		return s
	}
	var cfg *wlgen.Config
	switch name {
	case "R1":
		cfg = wlgen.R1Config(r.schema, r.seed)
	case "S1":
		cfg = wlgen.S1Config(r.schema, r.seed)
	case "S2":
		cfg = wlgen.S2Config(r.schema, r.seed)
	default:
		log.Fatalf("unknown workload %q", name)
	}
	set, err := cfg.Generate()
	if err != nil {
		log.Fatalf("generating %s: %v", name, err)
	}
	r.sets[name] = set
	return set
}

func (r *runner) scenario(engine, wl string) *bench.Scenario {
	key := engine + "/" + wl
	if sc, ok := r.scenarios[key]; ok {
		return sc
	}
	var sc *bench.Scenario
	switch engine {
	case "vertica":
		sc = bench.Vertica(r.set(wl), r.gammaV, r.seed)
	case "dbmsx":
		sc = bench.DBMSX(r.set(wl), r.gammaX, r.seed)
	default:
		log.Fatalf("unknown engine %q", engine)
	}
	sc.Parallelism = r.par
	sc.Observer = r.observer
	if r.metrics != nil {
		sc.Instrument(r.metrics)
	}
	r.scenarios[key] = sc
	return sc
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrunner: ")

	var (
		exps   = flag.String("experiment", "all", "comma-separated experiment IDs, or 'all'")
		seed   = flag.Int64("seed", 42, "workload/sampling seed")
		gammaV = flag.Float64("gamma", 0.002, "CliffGuard Gamma for Vertica scenarios")
		gammaX = flag.Float64("gamma-dbmsx", 0.0008, "CliffGuard Gamma for DBMS-X scenarios")
		csvDir = flag.String("csv", "", "also write per-experiment CSV files into this directory")
		par    = flag.Int("parallelism", 0, "CliffGuard neighborhood-evaluation workers (0 = NumCPU); any value produces identical results for a fixed seed")

		events   = flag.String("events", "", "write every CliffGuard run's event stream as JSONL to this file")
		spans    = flag.String("spans", "", "write the wall-clock span side-channel as JSONL to this file")
		metrics  = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /vars (MetricsSnapshot JSON, the same shape as the span metrics record) on this address for the duration of the run")
		progress = flag.Bool("progress", false, "print live CliffGuard progress to stderr")

		benchJSON = flag.String("bench-json", "", "write per-experiment BENCH_<id>.json baselines into this directory (cliffreport bench)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address, e.g. :6060 or :0")
	)
	flag.Parse()

	r := &runner{
		schema:    datagen.Warehouse(1),
		seed:      *seed,
		gammaV:    *gammaV,
		gammaX:    *gammaX,
		par:       *par,
		csvDir:    *csvDir,
		sets:      make(map[string]*wlgen.Set),
		scenarios: make(map[string]*bench.Scenario),
	}
	prof, err := obs.StartProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Printf("stopping profilers: %v", err)
		}
	}()
	if prof.Addr != "" {
		fmt.Printf("pprof at http://%s/debug/pprof/\n", prof.Addr)
	}

	if *metrics != "" || *spans != "" {
		r.metrics = obs.NewMetrics()
	}
	if *metrics != "" {
		srv, err := obs.Serve(*metrics, r.metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics at http://%s/metrics (MetricsSnapshot JSON at /vars)\n", srv.Addr)
	}
	var sink *obs.JSONLSink
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sink = obs.NewJSONLSink(f)
		r.observer = obs.Multi(r.observer, sink)
	}
	var spanRec *obs.SpanRecorder
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		spanRec = obs.NewSpanRecorder(f)
		r.observer = obs.Multi(r.observer, spanRec)
	}
	if *progress {
		r.observer = obs.Multi(r.observer, obs.NewProgressReporter(os.Stderr))
	}
	defer func() {
		if sink != nil {
			if err := sink.Flush(); err != nil {
				log.Fatalf("writing %s: %v", *events, err)
			}
		}
		if spanRec != nil {
			if err := spanRec.Finish(r.metrics); err != nil {
				log.Fatalf("writing %s: %v", *spans, err)
			}
		}
	}()
	if r.csvDir != "" {
		if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	if *benchJSON != "" {
		if err := os.MkdirAll(*benchJSON, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	order := []string{"T1", "F5", "F6", "F7a", "F7b", "F7c", "F8", "F9",
		"F10", "F11", "F12", "F13", "F14", "F15a", "F15b", "F16", "ABL", "SAMPLER", "EVAL", "PORTFOLIO", "SCALE", "ONLINE"}
	want := make(map[string]bool)
	if *exps == "all" {
		for _, id := range order {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*exps, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	for _, id := range order {
		if !want[id] {
			continue
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", id)
		values, info := r.run(id)
		elapsed := time.Since(start)
		fmt.Printf("(%s in %s)\n\n", id, elapsed.Round(time.Millisecond))
		if *benchJSON != "" {
			b := &report.BenchResult{
				Name: id, Seed: *seed, Parallelism: *par,
				WallMs: float64(elapsed.Milliseconds()),
				Values: values, Info: info,
			}
			path := filepath.Join(*benchJSON, "BENCH_"+id+".json")
			if err := b.WriteFile(path); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("baseline written to %s (%d values)\n\n", path, len(values))
		}
	}
}

// run executes one experiment, printing its table/figure, and returns its
// deterministic key values — the numbers a BENCH_<id>.json baseline gates on
// — plus informational (machine-dependent, never gated) observations.
// Wall-clock quantities (design/deploy time) are deliberately excluded from
// the values; they go into wall_ms or the info map instead.
func (r *runner) run(id string) (map[string]float64, map[string]float64) {
	out := os.Stdout
	vals := make(map[string]float64)
	var info map[string]float64
	sweepVals := func(points []bench.SweepPoint) {
		for _, p := range points {
			key := fmt.Sprintf("x=%g", p.X)
			vals[key+"/avg_ms"] = p.AvgMs
			vals[key+"/max_ms"] = p.MaxMs
		}
	}
	comparisonVals := func(res []bench.DesignerResult) {
		for _, d := range res {
			vals[d.Name+"/avg_ms"] = d.AvgMs
			vals[d.Name+"/max_ms"] = d.MaxMs
		}
	}
	switch id {
	case "T1":
		rows := bench.Table1([]*wlgen.Set{r.set("R1"), r.set("S1"), r.set("S2")})
		bench.PrintTable1(out, rows)
		r.csvOut(id, func(w *os.File) error { return bench.WriteTable1CSV(w, rows) })
		for _, row := range rows {
			vals[row.Workload+"/min"] = row.Min
			vals[row.Workload+"/max"] = row.Max
			vals[row.Workload+"/avg"] = row.Avg
			vals[row.Workload+"/std"] = row.Std
			vals[row.Workload+"/gaps"] = float64(row.Gaps)
		}
	case "F5":
		series := bench.Figure5(r.set("R1"), []int{7, 14, 21, 28}, 12)
		bench.PrintOverlap(out, series)
		r.csvOut(id, func(w *os.File) error { return bench.WriteOverlapCSV(w, series) })
		for _, s := range series {
			for lag, overlap := range s.ByLag {
				vals[fmt.Sprintf("w%d/lag%d", s.WindowDays, lag+1)] = overlap
			}
		}
	case "F6":
		res, err := r.scenario("vertica", "R1").Figure6(6)
		fail(err)
		bench.PrintSoundness(out, res, 8)
		r.csvOut(id, func(w *os.File) error { return bench.WriteSoundnessCSV(w, res) })
		vals["pearson"] = res.Pearson
		vals["spearman"] = res.Spearman
		vals["points"] = float64(len(res.Points))
	case "F7a", "F7b", "F7c":
		wl := map[string]string{"F7a": "R1", "F7b": "S1", "F7c": "S2"}[id]
		res, err := r.scenario("vertica", wl).CompareDesigners(bench.AllDesigners)
		fail(err)
		bench.PrintComparison(out, wl+" on Vertica-sim", res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteComparisonCSV(w, res) })
		comparisonVals(res)
	case "F8", "F9":
		wl := map[string]string{"F8": "R1", "F9": "S2"}[id]
		gammas := []float64{0.0005, 0.001, 0.002, 0.0035}
		if id == "F9" {
			gammas = []float64{0.0005, 0.001, 0.002, 0.004, 0.008}
		}
		points, exAvg, exMax, err := r.scenario("vertica", wl).GammaSweep(gammas)
		fail(err)
		fmt.Fprintf(out, "ExistingDesigner reference: avg %.0f ms, max %.0f ms\n", exAvg, exMax)
		bench.PrintSweep(out, "Gamma", points)
		r.csvOut(id, func(w *os.File) error { return bench.WriteSweepCSV(w, "gamma", points) })
		sweepVals(points)
		vals["existing/avg_ms"] = exAvg
		vals["existing/max_ms"] = exMax
	case "F10":
		res, err := r.scenario("dbmsx", "R1").CompareDesigners(bench.AllDesigners)
		fail(err)
		bench.PrintComparison(out, "R1 on DBMS-X-sim", res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteComparisonCSV(w, res) })
		comparisonVals(res)
	case "F11":
		res, err := r.scenario("vertica", "R1").DistanceAblation()
		fail(err)
		bench.PrintAblation(out, res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteAblationCSV(w, res) })
		for _, a := range res {
			vals[a.Metric+"/avg_ms"] = a.AvgMs
			vals[a.Metric+"/max_ms"] = a.MaxMs
		}
	case "F12":
		points, err := r.scenario("vertica", "R1").SampleSizeSweep([]int{1, 5, 10, 20, 40, 80})
		fail(err)
		bench.PrintSweep(out, "samples (n)", points)
		r.csvOut(id, func(w *os.File) error { return bench.WriteSweepCSV(w, "samples", points) })
		sweepVals(points)
	case "F13":
		points, err := r.scenario("vertica", "R1").IterationSweep([]int{1, 2, 3, 5, 8, 12, 18, 25})
		fail(err)
		bench.PrintSweep(out, "iterations", points)
		r.csvOut(id, func(w *os.File) error { return bench.WriteSweepCSV(w, "iterations", points) })
		sweepVals(points)
	case "F14":
		res, err := r.scenario("vertica", "R1").Figure14(bench.AllDesigners)
		fail(err)
		bench.PrintTiming(out, res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteTimingCSV(w, res) })
		for _, t := range res {
			vals[t.Name+"/nominal_calls"] = float64(t.NominalCalls)
		}
	case "F15a", "F15b":
		wl := map[string]string{"F15a": "S1", "F15b": "S2"}[id]
		res, err := r.scenario("dbmsx", wl).CompareDesigners(bench.AllDesigners)
		fail(err)
		bench.PrintComparison(out, wl+" on DBMS-X-sim", res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteComparisonCSV(w, res) })
		comparisonVals(res)
	case "F16":
		res, err := r.scenario("vertica", "R1").Figure16([]float64{0.1, 0.2}, 6)
		fail(err)
		bench.PrintLatencyMetric(out, res)
		r.csvOut(id, func(w *os.File) error {
			for _, lm := range res {
				if err := bench.WriteSoundnessCSV(w, &bench.SoundnessResult{Points: lm.Points}); err != nil {
					return err
				}
			}
			return nil
		})
		for _, lm := range res {
			vals[fmt.Sprintf("omega=%g/spearman", lm.Omega)] = lm.Spearman
		}
	case "ABL":
		variants, err := r.scenario("vertica", "R1").CliffGuardAblation()
		fail(err)
		for _, v := range variants {
			fmt.Fprintf(out, "%-22s %8.0f ms avg %8.0f ms max\n", v.Name, v.AvgMs, v.MaxMs)
		}
		r.csvOut(id, func(w *os.File) error {
			rows := make([]bench.AblationResult, len(variants))
			for i, v := range variants {
				rows[i] = bench.AblationResult{Metric: v.Name, AvgMs: v.AvgMs, MaxMs: v.MaxMs}
			}
			return bench.WriteAblationCSV(w, rows)
		})
		for _, v := range variants {
			vals[v.Name+"/avg_ms"] = v.AvgMs
			vals[v.Name+"/max_ms"] = v.MaxMs
		}
	case "SAMPLER":
		res, err := bench.SamplerBench(r.set("R1"), r.gammaV, 256, r.seed)
		fail(err)
		bench.PrintSampler(out, res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteSamplerCSV(w, res) })
		vals["draws"] = float64(res.Draws)
		vals["fastpath"] = float64(res.FastPath)
		vals["slowpath"] = float64(res.SlowPath)
		vals["fast_evals"] = float64(res.FastEvals)
		vals["legacy_evals"] = float64(res.LegacyEvals)
		vals["eval_reduction"] = res.EvalReduction
		vals["max_landing_err"] = res.MaxLandingErr
		info = map[string]float64{
			"fast_ms": res.FastMs, "legacy_ms": res.LegacyMs, "speedup": res.Speedup,
		}
	case "EVAL":
		res, err := bench.EvalBench(r.set("R1"), r.gammaV, r.seed)
		fail(err)
		bench.PrintEval(out, res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteEvalCSV(w, res) })
		vals["samples"] = float64(res.Samples)
		vals["iterations"] = float64(res.Iterations)
		vals["fast_cost_calls"] = float64(res.FastCostCalls)
		vals["legacy_cost_calls"] = float64(res.LegacyCostCalls)
		vals["call_reduction"] = res.CallReduction
		vals["eval_fastpath"] = float64(res.FastPathEvals)
		vals["eval_slowpath"] = float64(res.SlowPathEvals)
		vals["universe_queries"] = float64(res.UniverseQueries)
		vals["universe_cells"] = float64(res.UniverseCells)
		vals["designs_match"] = b2f(res.DesignsMatch)
		vals["traces_match"] = b2f(res.TracesMatch)
		vals["events_match"] = b2f(res.EventsMatch)
		info = map[string]float64{
			"fast_ms": res.FastMs, "legacy_ms": res.LegacyMs, "speedup": res.Speedup,
		}
	case "PORTFOLIO":
		res, err := bench.PortfolioBench(r.set("R1"), r.seed)
		fail(err)
		bench.PrintPortfolio(out, res)
		r.csvOut(id, func(w *os.File) error { return bench.WritePortfolioCSV(w, res) })
		for _, m := range res.Members {
			vals[m.Name+"/cost_ms"] = m.CostMs
			vals[m.Name+"/structures"] = float64(m.Structures)
			vals[m.Name+"/size_bytes"] = float64(m.SizeBytes)
		}
		vals["queries"] = float64(res.Queries)
		vals["portfolio/cost_ms"] = res.PortfolioCost
		vals["portfolio_le_best"] = b2f(res.PortfolioLEBest)
		vals["parallel_match"] = b2f(res.ParallelismMatch)
		vals["ilp_exact"] = b2f(res.ILPExact)
		vals["ilp_nodes"] = float64(res.ILPNodes)
		info = map[string]float64{
			"p1_ms": res.P1Ms, "pn_ms": res.PNMs, "overhead_ms": res.OverheadMs,
		}
	case "SCALE":
		res, err := bench.ScaleBench(r.set("R1"), r.gammaV, r.seed)
		fail(err)
		bench.PrintScale(out, res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteScaleCSV(w, res) })
		vals["log_lines"] = float64(res.LogLines)
		vals["base_lines"] = float64(res.BaseLines)
		vals["streamed"] = float64(res.Streamed)
		vals["skipped"] = float64(res.Skipped)
		vals["templates"] = float64(res.Templates)
		vals["frozen_len"] = float64(res.FrozenLen)
		vals["compression"] = res.Compression
		vals["fold_identical"] = b2f(res.FoldIdentical)
		vals["counters_match"] = b2f(res.CountersMatch)
		vals["iterations"] = float64(res.Iterations)
		vals["pooled_cost_calls"] = float64(res.PooledCostCalls)
		info = map[string]float64{
			"ingest_ms": res.IngestMs, "design_ms": res.DesignMs,
			"heap_mb": res.HeapMB, "sys_mb": res.SysMB,
		}
	case "ONLINE":
		res, err := bench.OnlineBench(r.set("R1"), r.gammaV, r.seed)
		fail(err)
		bench.PrintOnline(out, res)
		r.csvOut(id, func(w *os.File) error { return bench.WriteOnlineCSV(w, res) })
		vals["samples"] = float64(res.Samples)
		vals["iterations"] = float64(res.Iterations)
		vals["observed"] = float64(res.Observed)
		vals["evicted"] = float64(res.Evicted)
		vals["drift_checks"] = float64(res.DriftChecks)
		vals["drift_fires"] = float64(res.DriftFires)
		vals["drift_fired"] = b2f(res.DriftFired)
		vals["redesigns"] = float64(res.Redesigns)
		vals["published"] = float64(res.Published)
		vals["bootstrap_calls"] = float64(res.BootstrapCalls)
		// The key keeps its name from when a warm replay ran beside this one.
		vals["steady_cold_calls"] = float64(res.SteadyCalls)
		vals["safety_kept_incumbent"] = b2f(res.SafetyKeptIncumbent)
	default:
		log.Fatalf("unknown experiment %q", id)
	}
	return vals, info
}

// b2f encodes a gated equivalence/safety bit as a baseline value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
