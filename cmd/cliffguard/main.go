// Command cliffguard runs the robust designer (or the nominal designer, for
// comparison) over a SQL workload and prints the recommended physical
// design.
//
// -workload accepts a query-log file (SQL statements, optionally preceded by
// an RFC3339 timestamp and a tab — the format cmd/wlgen emits — with
// multi-line ';'-terminated statements also accepted) or a workload
// directory (schema.sql plus queries/ or queries.sql, in which case the DDL
// overrides -scale). Lines starting with "--" and blank lines are ignored.
// Either way the log streams through the template-compressing ingestion
// path: duplicate statements fold into single weighted items, so memory
// stays proportional to the number of distinct templates, not log lines.
//
// Usage:
//
//	wlgen -workload R1 -out r1.sql
//	cliffguard -workload r1.sql -engine vertica -gamma 0.002 -budget 2560
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"cliffguard"
	"cliffguard/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cliffguard: ")

	var (
		path    = flag.String("workload", "", "workload: a SQL query-log file, or a directory with schema.sql + queries/ (required)")
		engine  = flag.String("engine", "vertica", "engine: vertica (projections) or rowstore (indices+matviews)")
		budget  = flag.Int64("budget", 2560, "storage budget in MiB")
		scale   = flag.Int64("scale", 1, "warehouse scale factor")
		loop    = loopFlags(flag.CommandLine)
		verbose = flag.Bool("v", false, "print the per-iteration trace")
		outJSON = flag.String("out", "", "also write the design as JSON to this file")

		onlineMode = flag.Bool("online", false,
			"replay the workload through online mode: queries stream through a sliding window, drift past the threshold triggers incumbent-seeded re-designs guarded by the safety acceptance rule")
		driftFraction = flag.Float64("drift-fraction", 0,
			"online: fire a re-design when delta(window, designed) exceeds this fraction of gamma (0 = 1.0)")
		checkEvery = flag.Int("check-every", 0,
			"online: run a drift check every N observed queries (0 = on window-bucket rotation)")
		winBuckets = flag.Int("window-buckets", 0,
			"online: sliding-window ring capacity in buckets (0 = 8)")
		bucketSize = flag.Int("bucket-size", 0,
			"online: observations per window bucket (0 = 64)")

		events   = flag.String("events", "", "write the loop's event stream as JSONL to this file")
		spans    = flag.String("spans", "", "write the wall-clock span side-channel as JSONL to this file (cliffreport summarize -spans)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /vars (MetricsSnapshot JSON, the same shape as the span metrics record) on this address, e.g. :8080 or :0")
		progress = flag.Bool("progress", false, "print live per-iteration progress to stderr")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address, e.g. :6060 or :0")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	req := loop()
	if err := req.Validate(); err != nil {
		log.Fatal(err)
	}
	if *onlineMode && req.Gamma <= 0 {
		log.Fatal("-online needs -gamma > 0 (online mode guards a Gamma-neighborhood)")
	}

	// The metrics registry is created before ingestion so the streaming
	// parser's ingest_* counters land on the same /metrics surface as the
	// run's; the listener itself starts later, which is fine — counters are
	// cumulative.
	var reg *cliffguard.Metrics
	if *metrics != "" || *spans != "" {
		reg = cliffguard.NewMetrics()
	}

	s, w, st, err := loadWorkload(*path, *scale, reg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d queries as %d templates (%d skipped) from %s\n",
		st.Streamed, w.Len(), st.Skipped, *path)

	eng, err := cliffguard.OpenEngine(cliffguard.EngineSpec{Kind: *engine, Schema: s})
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels the design loop: the context threads down through the
	// designers and cost models, so the run aborts promptly mid-iteration.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Profiling: CPU/heap profile files and the optional pprof listener.
	prof, err := cliffguard.StartProfiling(*cpuProfile, *memProfile, *pprofAddr)
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

	// Instrumentation, for the batch and the online path alike: the registry
	// created above ingestion, an optional JSONL event sink, an optional span
	// side-channel, and a terminal progress reporter.
	if *metrics != "" {
		srv, err := cliffguard.ServeMetrics(*metrics, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics at http://%s/metrics (MetricsSnapshot JSON at /vars)\n", srv.Addr)
	}
	var observer cliffguard.Observer
	var sink *cliffguard.JSONLSink
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sink = cliffguard.NewJSONLSink(f)
		observer = cliffguard.MultiObserver(observer, sink)
	}
	var spanRec *cliffguard.SpanRecorder
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		spanRec = cliffguard.NewSpanRecorder(f)
		observer = cliffguard.MultiObserver(observer, spanRec)
	}
	if *progress {
		observer = cliffguard.MultiObserver(observer, cliffguard.NewProgressReporter(os.Stderr))
	}
	if reg != nil {
		eng.Instrument(reg)
	}
	// flushObservers ends the event and span streams once the design is in.
	flushObservers := func() {
		if sink != nil {
			if err := sink.Flush(); err != nil {
				log.Fatalf("writing %s: %v", *events, err)
			}
		}
		if spanRec != nil {
			if err := spanRec.Finish(reg); err != nil {
				log.Fatalf("writing %s: %v", *spans, err)
			}
		}
	}

	if *onlineMode {
		spec := serve.OnlineSpec{
			RunRequest: req, DriftFraction: *driftFraction, CheckEvery: *checkEvery,
			Buckets: *winBuckets, BucketSize: *bucketSize,
		}
		if err := runOnline(ctx, eng, *budget<<20, spec, w, reg, observer, *verbose); err != nil {
			log.Fatal(err)
		}
		flushObservers()
		return
	}

	// Batch, at any Gamma: at Gamma = 0 the run returns the nominal design
	// (the portfolio's, with several -designers) without sampling.
	start := time.Now()
	spec := req.Spec()
	spec.Opened, spec.BudgetBytes, spec.Workload = eng, *budget<<20, w
	spec.Options = spec.Options.WithObserver(observer).WithMetrics(reg)
	h, err := serve.StartRun(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	design, traces, err := h.Await(context.Background())
	if *verbose {
		for _, tr := range traces {
			fmt.Printf("iter %2d: alpha=%.3f worst-case %.0f -> candidate %.0f improved=%v\n",
				tr.Iteration, tr.Alpha, tr.WorstCase, tr.CandidateCost, tr.Improved)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	flushObservers()

	before, _ := cliffguard.WorkloadCost(ctx, eng, w, nil)
	after, _ := cliffguard.WorkloadCost(ctx, eng, w, design)
	fmt.Printf("design found in %s: %d structures, %d MiB\n",
		time.Since(start).Round(time.Millisecond), design.Len(), design.SizeBytes()>>20)
	fmt.Printf("estimated workload cost: %.0f ms -> %.0f ms (%.1fx)\n", before, after, safeRatio(before, after))
	fmt.Println(design)

	if *outJSON != "" {
		if err := writeDesignJSON(*outJSON, *engine, req.Gamma, design, before, after); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("design written to %s\n", *outJSON)
	}
}

// loopFlags registers the robust loop's flags on fs and returns the function
// that lowers their parsed values to the one loop specification.
func loopFlags(fs *flag.FlagSet) func() serve.RunRequest {
	var (
		gamma   = fs.Float64("gamma", 0.002, "robustness knob Gamma (0 = nominal design)")
		seed    = fs.Int64("seed", 7, "sampling seed")
		samples = fs.Int("samples", 40, "Gamma-neighborhood sample count")
		iters   = fs.Int("iterations", 12, "robust-move iterations")
		par     = fs.Int("parallelism", 0, "neighborhood-evaluation workers (0 = NumCPU)")

		designers = fs.String("designers", "advisor",
			"comma-separated designer portfolio raced on every design call: advisor (the engine's nominal designer), autoadmin, ilp")
		memberTimeout = fs.Duration("member-timeout", 0,
			"per-member design timeout for the portfolio (0 = no bound); a timed-out member is skipped, not fatal")
	)
	return func() serve.RunRequest {
		req := serve.RunRequest{
			Gamma: *gamma, Samples: *samples, Iterations: *iters, Seed: *seed,
			Parallelism: *par, Designers: strings.Split(*designers, ","),
		}
		if *memberTimeout != 0 {
			req.MemberTimeout = memberTimeout.String()
		}
		return req
	}
}

// designDoc is the JSON shape of an exported design.
type designDoc struct {
	Engine     string         `json:"engine"`
	Gamma      float64        `json:"gamma"`
	TotalBytes int64          `json:"total_bytes"`
	CostBefore float64        `json:"workload_cost_before_ms"`
	CostAfter  float64        `json:"workload_cost_after_ms"`
	Structures []structureDoc `json:"structures"`
}

type structureDoc struct {
	Key       string `json:"key"`
	SizeBytes int64  `json:"size_bytes"`
	Describe  string `json:"describe"`
}

func writeDesignJSON(path, engine string, gamma float64, d *cliffguard.Design, before, after float64) error {
	doc := designDoc{
		Engine:     engine,
		Gamma:      gamma,
		TotalBytes: d.SizeBytes(),
		CostBefore: before,
		CostAfter:  after,
	}
	for _, st := range d.Structures {
		doc.Structures = append(doc.Structures, structureDoc{
			Key: st.Key(), SizeBytes: st.SizeBytes(), Describe: st.Describe(),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadWorkload streams the workload through the template-compressing
// ingestion path (unparseable statements are counted and skipped, mirroring
// the paper's treatment of R1's non-conforming queries): a workload
// directory carries its own schema.sql, a bare log file parses against the
// -scale warehouse schema. A non-nil reg receives the ingest_* counters.
func loadWorkload(path string, scale int64, reg *cliffguard.Metrics) (*cliffguard.Schema, *cliffguard.Workload, cliffguard.IngestStats, error) {
	opts := cliffguard.IngestOptions{FirstID: 1, Metrics: reg}
	if cliffguard.IsWorkloadDir(path) {
		return cliffguard.LoadWorkloadDir(path, opts)
	}
	s := cliffguard.Warehouse(scale)
	w, st, err := cliffguard.IngestFile(s, path, opts)
	return s, w, st, err
}

func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
