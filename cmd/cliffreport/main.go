// Command cliffreport analyzes recorded CliffGuard runs: the JSONL event
// streams written by `cliffguard -events` / `benchrunner -events`, their
// wall-clock span side-channels (-spans), and the BENCH_*.json baselines
// written by `benchrunner -bench-json`.
//
// Usage:
//
//	cliffreport summarize [-spans run.spans.jsonl] [-json] run.jsonl
//	cliffreport diff [-check] [-spans-a a.spans] [-spans-b b.spans] old.jsonl new.jsonl
//	cliffreport check -expect expected_summary.json [-spans run.spans] run.jsonl
//	cliffreport bench [-against baselines/] [-rel-tol 0.01] BENCH_T1.json...
//	cliffreport serve-summary [-requestz requestz.json] [-runz runz.json] [-json] vars.json
//
// `diff -check` and `check` exit non-zero on regression/mismatch, which is
// how `make ci` gates on run trajectories.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cliffguard/internal/obs"
	"cliffguard/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: cliffreport <command> [flags] <args>

commands:
  summarize      analyze one recorded run (convergence, alpha trajectory, budgets)
  diff           compare two runs; -check exits non-zero on regression
  check          verify a run against an expected summary (golden gate)
  bench          validate BENCH_*.json files; -against gates them on a baseline dir
  serve-summary  render a saved cliffguardd /vars body (MetricsSnapshot JSON) (+ flight-recorder dumps)

run 'cliffreport <command> -h' for the command's flags`)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "summarize":
		return runSummarize(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "check":
		return runCheck(args[1:], stdout, stderr)
	case "bench":
		return runBench(args[1:], stdout, stderr)
	case "serve-summary":
		return runServeSummary(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "cliffreport: unknown command %q\n", args[0])
		return usage(stderr)
	}
}

// summarizeRun loads and summarizes one run, reporting errors on stderr.
func summarizeRun(eventsPath, spansPath string, stderr io.Writer) *report.Summary {
	r, err := report.Load(eventsPath, spansPath)
	if err != nil {
		fmt.Fprintf(stderr, "cliffreport: %v\n", err)
		return nil
	}
	s, err := report.Summarize(r)
	if err != nil {
		fmt.Fprintf(stderr, "cliffreport: %v\n", err)
		return nil
	}
	return s
}

func writeJSON(w io.Writer, v any) int {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return 1
	}
	return 0
}

func runSummarize(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summarize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spans := fs.String("spans", "", "span side-channel JSONL recorded alongside the events")
	asJSON := fs.Bool("json", false, "emit the summary as JSON instead of text")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "cliffreport summarize: want exactly one events.jsonl argument")
		return 2
	}
	s := summarizeRun(fs.Arg(0), *spans, stderr)
	if s == nil {
		return 1
	}
	if *asJSON {
		return writeJSON(stdout, s)
	}
	_ = report.WriteSummaryText(stdout, s)
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	th := report.DefaultThresholds()
	spansA := fs.String("spans-a", "", "span stream of the old run")
	spansB := fs.String("spans-b", "", "span stream of the new run")
	check := fs.Bool("check", false, "exit non-zero when a gated metric regresses")
	asJSON := fs.Bool("json", false, "emit the diff as JSON instead of text")
	fs.Float64Var(&th.WorstCasePct, "max-worst-pct", th.WorstCasePct, "allowed final worst-case cost increase, percent")
	fs.Float64Var(&th.EvalsPct, "max-evals-pct", th.EvalsPct, "allowed neighbor-evaluation count increase, percent")
	fs.Float64Var(&th.WallPct, "max-wall-pct", th.WallPct, "allowed wall-clock increase, percent (needs both span streams)")
	fs.IntVar(&th.DesignerCalls, "max-designer-calls", th.DesignerCalls, "allowed extra designer invocations")
	fs.IntVar(&th.Iterations, "max-iterations", th.Iterations, "allowed extra loop iterations")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "cliffreport diff: want exactly two arguments: old.jsonl new.jsonl")
		return 2
	}
	oldS := summarizeRun(fs.Arg(0), *spansA, stderr)
	newS := summarizeRun(fs.Arg(1), *spansB, stderr)
	if oldS == nil || newS == nil {
		return 1
	}
	d := report.Compare(oldS, newS, th)
	if *asJSON {
		if rc := writeJSON(stdout, d); rc != 0 {
			return rc
		}
	} else {
		_ = report.WriteDiffText(stdout, d)
	}
	if *check && d.Regressed {
		return 1
	}
	return 0
}

func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spans := fs.String("spans", "", "span side-channel JSONL recorded alongside the events")
	expect := fs.String("expect", "", "expected-summary JSON file (required)")
	if fs.Parse(args) != nil {
		return 2
	}
	if *expect == "" || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "cliffreport check: want -expect expected.json and one events.jsonl argument")
		return 2
	}
	raw, err := os.ReadFile(*expect)
	if err != nil {
		fmt.Fprintf(stderr, "cliffreport: %v\n", err)
		return 1
	}
	var want report.Summary
	if err := json.Unmarshal(raw, &want); err != nil {
		fmt.Fprintf(stderr, "cliffreport: %s: %v\n", *expect, err)
		return 1
	}
	got := summarizeRun(fs.Arg(0), *spans, stderr)
	if got == nil {
		return 1
	}
	if bad := report.Check(got, &want); len(bad) > 0 {
		fmt.Fprintf(stdout, "FAIL: %s deviates from %s in %d field(s)\n", fs.Arg(0), *expect, len(bad))
		for _, msg := range bad {
			fmt.Fprintf(stdout, "  - %s\n", msg)
		}
		return 1
	}
	fmt.Fprintf(stdout, "OK: %s matches %s\n", fs.Arg(0), *expect)
	return 0
}

// runServeSummary renders a saved cliffguardd /vars body (MetricsSnapshot
// JSON, the same shape as the span metrics record), optionally joined with
// saved /v1/debug/requestz and /v1/debug/runz envelope dumps.
func runServeSummary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve-summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	requestz := fs.String("requestz", "", "saved GET /v1/debug/requestz response to fold in")
	runz := fs.String("runz", "", "saved GET /v1/debug/runz response to fold in")
	asJSON := fs.Bool("json", false, "emit the summary as JSON instead of text")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "cliffreport serve-summary: want exactly one saved vars.json argument")
		return 2
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "cliffreport: %v\n", err)
		return 1
	}
	var vars obs.MetricsSnapshot
	if err := json.Unmarshal(raw, &vars); err != nil {
		fmt.Fprintf(stderr, "cliffreport: decoding %s: %v\n", fs.Arg(0), err)
		return 1
	}
	var reqDump, runDump []byte
	if *requestz != "" {
		if reqDump, err = os.ReadFile(*requestz); err != nil {
			fmt.Fprintf(stderr, "cliffreport: %v\n", err)
			return 1
		}
	}
	if *runz != "" {
		if runDump, err = os.ReadFile(*runz); err != nil {
			fmt.Fprintf(stderr, "cliffreport: %v\n", err)
			return 1
		}
	}
	s, err := report.SummarizeServe(vars, reqDump, runDump)
	if err != nil {
		fmt.Fprintf(stderr, "cliffreport: %v\n", err)
		return 1
	}
	if *asJSON {
		return writeJSON(stdout, s)
	}
	_ = report.WriteServeSummaryText(stdout, s)
	return 0
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	against := fs.String("against", "", "baseline directory holding BENCH_*.json files to gate on")
	relTol := fs.Float64("rel-tol", 0.01, "allowed relative drift per value, percent")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "cliffreport bench: want at least one BENCH_*.json argument")
		return 2
	}
	rc := 0
	for _, path := range fs.Args() {
		b, err := report.LoadBench(path)
		if err != nil {
			fmt.Fprintf(stderr, "cliffreport: %v\n", err)
			rc = 1
			continue
		}
		if *against == "" {
			fmt.Fprintf(stdout, "OK: %s (%s, seed %d, %d values, %.0f ms)\n",
				path, b.Name, b.Seed, len(b.Values), b.WallMs)
			continue
		}
		basePath := filepath.Join(*against, filepath.Base(path))
		base, err := report.LoadBench(basePath)
		if err != nil {
			fmt.Fprintf(stderr, "cliffreport: %v\n", err)
			rc = 1
			continue
		}
		if bad := report.CompareBench(base, b, *relTol); len(bad) > 0 {
			fmt.Fprintf(stdout, "FAIL: %s deviates from %s in %d value(s)\n", path, basePath, len(bad))
			for _, msg := range bad {
				fmt.Fprintf(stdout, "  - %s\n", msg)
			}
			rc = 1
			continue
		}
		fmt.Fprintf(stdout, "OK: %s matches %s (%d values; wall %.0f ms vs %.0f ms baseline)\n",
			path, basePath, len(b.Values), b.WallMs, base.WallMs)
	}
	return rc
}
