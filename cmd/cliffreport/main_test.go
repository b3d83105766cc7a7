package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/obs"
	"cliffguard/internal/report"
)

// fakeClock advances 1ms per reading from a fixed base, so every recording
// produces identical span durations — the diff -check wall-clock gate must
// see 0% drift between two runs of record(), regardless of scheduler noise.
func fakeClock() func() time.Time {
	t0 := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

// record writes a small run's event and span streams into dir and returns
// their paths. finalCost lets tests inject a worst-case regression.
func record(t *testing.T, dir, name string, finalCost float64) (eventsPath, spansPath string) {
	t.Helper()
	events := []obs.Event{
		obs.NeighborhoodSampled{Gamma: 0.002, Requested: 4, Produced: 4},
		obs.IterationStart{Iteration: 0, Alpha: 1, WorstCase: 1000},
		obs.NeighborEvaluated{Iteration: 0, Phase: obs.PhaseRank, Index: 0, Cost: 950},
		obs.DesignerInvoked{Iteration: 0, Designer: "VerticaDBD", Queries: 5},
		obs.NeighborEvaluated{Iteration: 0, Phase: obs.PhaseCandidate, Index: 0, Cost: finalCost},
		obs.MoveAccepted{Iteration: 0, Alpha: 1, WorstCase: finalCost, Previous: 1000},
		obs.IterationEnd{Iteration: 0, Alpha: 1, WorstCase: 1000, CandidateCost: finalCost, Improved: true},
	}
	eventsPath = filepath.Join(dir, name+".jsonl")
	spansPath = filepath.Join(dir, name+".spans.jsonl")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(ef)
	rec := obs.NewSpanRecorder(sf).WithClock(fakeClock())
	for _, ev := range events {
		sink.OnEvent(ev)
		rec.OnEvent(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	m.CostModelCalls.Add(7)
	if err := rec.Finish(m); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	return eventsPath, spansPath
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	rc := run(args, &stdout, &stderr)
	return rc, stdout.String(), stderr.String()
}

func TestSummarizeCommand(t *testing.T) {
	dir := t.TempDir()
	ev, sp := record(t, dir, "run", 800)

	rc, out, _ := runCLI(t, "summarize", "-spans", sp, ev)
	if rc != 0 {
		t.Fatalf("summarize rc = %d", rc)
	}
	for _, want := range []string{"worst-case cost", "1000.0000 -> 800.0000", "wall clock", "cost-model calls  7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summarize output missing %q:\n%s", want, out)
		}
	}

	rc, out, _ = runCLI(t, "summarize", "-json", ev)
	if rc != 0 {
		t.Fatalf("summarize -json rc = %d", rc)
	}
	var s report.Summary
	if err := json.Unmarshal([]byte(out), &s); err != nil {
		t.Fatalf("summarize -json is not JSON: %v", err)
	}
	if s.FinalWorstCase != 800 || s.HasSpans {
		t.Fatalf("JSON summary wrong: %+v", s)
	}

	if rc, _, _ := runCLI(t, "summarize", filepath.Join(dir, "missing.jsonl")); rc == 0 {
		t.Fatal("missing file must fail")
	}
}

func TestDiffCheckExitCodes(t *testing.T) {
	dir := t.TempDir()
	a, spA := record(t, dir, "a", 800)
	b, spB := record(t, dir, "b", 800)
	worse, _ := record(t, dir, "worse", 900) // +12.5% > 1% threshold

	// Identical runs: exit 0.
	rc, out, _ := runCLI(t, "diff", "-check", "-spans-a", spA, "-spans-b", spB, a, b)
	if rc != 0 {
		t.Fatalf("identical diff rc = %d:\n%s", rc, out)
	}
	if !strings.Contains(out, "OK: no regressions") {
		t.Fatalf("diff output missing verdict:\n%s", out)
	}

	// Injected regression beyond threshold: non-zero only with -check.
	rc, out, _ = runCLI(t, "diff", "-check", a, worse)
	if rc == 0 {
		t.Fatalf("regression not gated:\n%s", out)
	}
	if !strings.Contains(out, "final_worst_case_ms") {
		t.Fatalf("diff output missing regressed metric:\n%s", out)
	}
	if rc, _, _ = runCLI(t, "diff", a, worse); rc != 0 {
		t.Fatal("diff without -check must not gate")
	}

	// Loosened threshold lets it pass.
	if rc, _, _ = runCLI(t, "diff", "-check", "-max-worst-pct", "20", a, worse); rc != 0 {
		t.Fatal("threshold override ignored")
	}

	// JSON mode carries the verdict.
	rc, out, _ = runCLI(t, "diff", "-json", a, worse)
	if rc != 0 {
		t.Fatalf("diff -json rc = %d", rc)
	}
	var d report.Diff
	if err := json.Unmarshal([]byte(out), &d); err != nil {
		t.Fatalf("diff -json is not JSON: %v", err)
	}
	if !d.Regressed {
		t.Fatal("JSON diff lost the regression")
	}
}

func TestCheckCommand(t *testing.T) {
	dir := t.TempDir()
	ev, sp := record(t, dir, "run", 800)

	s := func() *report.Summary {
		r, err := report.Load(ev, sp)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := report.Summarize(r)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}()
	expect := filepath.Join(dir, "expected.json")
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(expect, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if rc, out, _ := runCLI(t, "check", "-expect", expect, "-spans", sp, ev); rc != 0 {
		t.Fatalf("self-check rc = %d:\n%s", rc, out)
	}
	// Spans differ run-to-run; check must still pass without them.
	if rc, _, _ := runCLI(t, "check", "-expect", expect, ev); rc != 0 {
		t.Fatal("check must ignore wall-clock fields")
	}

	drifted, _ := record(t, dir, "drift", 900)
	rc, out, _ := runCLI(t, "check", "-expect", expect, drifted)
	if rc == 0 {
		t.Fatal("drifted run must fail check")
	}
	if !strings.Contains(out, "final_worst_case") {
		t.Fatalf("check output missing field:\n%s", out)
	}
}

func TestBenchCommand(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline")
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	b := &report.BenchResult{
		Name: "T1", Seed: 42, Parallelism: 1, WallMs: 5000,
		Values: map[string]float64{"R1/queries": 100, "R1/windows": 7},
	}
	if err := b.WriteFile(filepath.Join(base, "BENCH_T1.json")); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "BENCH_T1.json")
	nb := *b
	nb.WallMs = 9000 // informational only
	if err := nb.WriteFile(fresh); err != nil {
		t.Fatal(err)
	}

	if rc, out, _ := runCLI(t, "bench", fresh); rc != 0 {
		t.Fatalf("bench validate rc = %d:\n%s", rc, out)
	}
	if rc, out, _ := runCLI(t, "bench", "-against", base, fresh); rc != 0 {
		t.Fatalf("bench gate rc = %d:\n%s", rc, out)
	}

	// A drifted value fails the gate.
	nb.Values = map[string]float64{"R1/queries": 150, "R1/windows": 7}
	if err := nb.WriteFile(fresh); err != nil {
		t.Fatal(err)
	}
	rc, out, _ := runCLI(t, "bench", "-against", base, fresh)
	if rc == 0 {
		t.Fatalf("bench drift not gated:\n%s", out)
	}
	if !strings.Contains(out, "R1/queries") {
		t.Fatalf("bench output missing value name:\n%s", out)
	}

	// Garbage and wrong-schema files fail validation.
	badPath := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(badPath, []byte(`{"schema":99,"name":"x","values":{"a":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if rc, _, errOut := runCLI(t, "bench", badPath); rc == 0 || !strings.Contains(errOut, "schema") {
		t.Fatalf("bad schema accepted (rc=%d, stderr=%s)", rc, errOut)
	}
}

func TestUnknownCommand(t *testing.T) {
	if rc, _, _ := runCLI(t, "frobnicate"); rc != 2 {
		t.Fatal("unknown command must exit 2")
	}
	if rc, _, _ := runCLI(t); rc != 2 {
		t.Fatal("no command must exit 2")
	}
}

// serve-summary reads a saved /vars body: MetricsSnapshot JSON.
func TestServeSummaryCommand(t *testing.T) {
	m := obs.NewMetrics()
	m.HTTPRequestLatency.Observe(obs.ServiceKey("POST /v1/tenants/{tenant}/runs", "2xx"), time.Millisecond)
	m.TenantRuns.Inc("acme")
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vars.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rc, out, errOut := runCLI(t, "serve-summary", path)
	if rc != 0 || !strings.Contains(out, "serve summary (1 requests)") || !strings.Contains(out, "tenant acme") {
		t.Fatalf("rc=%d stdout:\n%s\nstderr:\n%s", rc, out, errOut)
	}
	if err := os.WriteFile(path, []byte("# HELP not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rc, _, _ := runCLI(t, "serve-summary", path); rc != 1 {
		t.Fatalf("a non-JSON body exited %d, want 1", rc)
	}
}
