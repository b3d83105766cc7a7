package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/obs"
)

// syntheticRun records a small deterministic run through the real sink and a
// SpanRecorder on the same event sequence, then loads it back as a Run.
func syntheticRun(t *testing.T) *Run {
	t.Helper()
	events := []obs.Event{
		obs.DesignerInvoked{Iteration: -1, Designer: "VerticaDBD", Queries: 5, Structures: 3},
		obs.NeighborhoodSampled{Gamma: 0.002, Requested: 4, Produced: 5},
		obs.NeighborEvaluated{Iteration: -1, Phase: obs.PhaseInitial, Index: 0, Cost: 900},
		obs.NeighborEvaluated{Iteration: -1, Phase: obs.PhaseInitial, Index: 1, Cost: 1000},
		obs.IterationStart{Iteration: 0, Alpha: 1, WorstCase: 1000},
		obs.NeighborEvaluated{Iteration: 0, Phase: obs.PhaseRank, Index: 0, Cost: 950},
		obs.NeighborEvaluated{Iteration: 0, Phase: obs.PhaseRank, Index: 1, Uncostable: true},
		obs.DesignerInvoked{Iteration: 0, Designer: "VerticaDBD", Queries: 6},
		obs.NeighborEvaluated{Iteration: 0, Phase: obs.PhaseCandidate, Index: 0, Cost: 800},
		obs.MoveAccepted{Iteration: 0, Alpha: 1, WorstCase: 800, Previous: 1000},
		obs.IterationEnd{Iteration: 0, Alpha: 1, WorstCase: 1000, CandidateCost: 800, Improved: true},
		obs.IterationStart{Iteration: 1, Alpha: 1, WorstCase: 800},
		obs.NeighborEvaluated{Iteration: 1, Phase: obs.PhaseRank, Index: 0, Cost: 850},
		obs.DesignerInvoked{Iteration: 1, Designer: "VerticaDBD", Queries: 6},
		obs.NeighborEvaluated{Iteration: 1, Phase: obs.PhaseCandidate, Index: 0, Cost: 900},
		obs.MoveRejected{Iteration: 1, Alpha: 0.5, CandidateCost: 900, WorstCase: 800},
		obs.IterationEnd{Iteration: 1, Alpha: 0.5, WorstCase: 800, CandidateCost: 900, Improved: false},
	}

	var evBuf, spBuf bytes.Buffer
	sink := obs.NewJSONLSink(&evBuf)
	rec := obs.NewSpanRecorder(&spBuf)
	for _, ev := range events {
		sink.OnEvent(ev)
		rec.OnEvent(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	m.CostModelCalls.Add(42)
	m.RegisterCache("neighbor", func() obs.CacheStats {
		return obs.CacheStats{Hits: 3, Misses: 1, Entries: 2}
	})
	m.EvalLatency.Observe(2 * time.Millisecond)
	if err := rec.Finish(m); err != nil {
		t.Fatal(err)
	}

	run, err := FromReaders(&evBuf, &spBuf)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestSummarize(t *testing.T) {
	s, err := Summarize(syntheticRun(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.Gamma != 0.002 || s.SamplesRequested != 4 || s.SamplesProduced != 5 {
		t.Fatalf("neighborhood stats wrong: %+v", s)
	}
	if s.Iterations != 2 || s.Accepted != 1 || s.Rejected != 1 || s.AcceptanceRate != 0.5 {
		t.Fatalf("iteration stats wrong: %+v", s)
	}
	if s.InitialWorstCase != 1000 || s.FinalWorstCase != 800 {
		t.Fatalf("worst-case endpoints wrong: initial=%g final=%g", s.InitialWorstCase, s.FinalWorstCase)
	}
	if s.ImprovementPct != 20 {
		t.Fatalf("improvement = %g, want 20", s.ImprovementPct)
	}
	if s.NeighborEvals != 7 || s.UncostableEvals != 1 {
		t.Fatalf("eval counts wrong: %+v", s)
	}
	if s.EvalsByPhase[obs.PhaseInitial] != 2 || s.EvalsByPhase[obs.PhaseRank] != 3 || s.EvalsByPhase[obs.PhaseCandidate] != 2 {
		t.Fatalf("evals by phase wrong: %v", s.EvalsByPhase)
	}
	if s.DesignerInvocations != 3 || len(s.Designers) != 1 || s.Designers[0] != "VerticaDBD" {
		t.Fatalf("designer census wrong: %+v", s)
	}
	if len(s.Convergence) != 2 || !s.Convergence[0].Improved || s.Convergence[1].Improved {
		t.Fatalf("convergence curve wrong: %+v", s.Convergence)
	}
	if got := s.alphaTrajectory(); got != "1+ 0.5-" {
		t.Fatalf("alpha trajectory = %q", got)
	}
	if !s.HasSpans || s.WallMs <= 0 {
		t.Fatalf("span tail missing: %+v", s)
	}
	if s.PhaseMs[obs.SpanIteration].Spans != 2 {
		t.Fatalf("iteration span latency missing: %v", s.PhaseMs)
	}
	if !s.HasMetrics || s.CostModelCalls != 42 {
		t.Fatalf("metrics tail missing: %+v", s)
	}
	if got := s.CacheHitRatio["neighbor"]; got != 0.75 {
		t.Fatalf("cache hit ratio = %g, want 0.75", got)
	}
	if s.Latency["eval"].Count != 1 {
		t.Fatalf("latency snapshot missing: %v", s.Latency)
	}

	var out bytes.Buffer
	if err := WriteSummaryText(&out, s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alpha trajectory", "worst-case cost", "1000.0000 -> 800.0000", "cache neighbor", "wall clock"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary text missing %q:\n%s", want, out.String())
		}
	}
}

func TestSummarizeEventsOnly(t *testing.T) {
	run := syntheticRun(t)
	run.Spans = nil
	s, err := Summarize(run)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasSpans || s.HasMetrics || s.WallMs != 0 {
		t.Fatalf("events-only summary leaked wall-clock fields: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(&Run{}); err == nil {
		t.Fatal("empty run must not summarize")
	}
}

func TestCompareIdenticalRunsPass(t *testing.T) {
	s, err := Summarize(syntheticRun(t))
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(s, s, DefaultThresholds())
	if d.Regressed || len(d.Regressions) != 0 {
		t.Fatalf("identical runs must not regress: %+v", d.Regressions)
	}
	// Zero slack must also pass on identical runs.
	if d := Compare(s, s, Thresholds{}); d.Regressed {
		t.Fatalf("identical runs regress under zero thresholds: %+v", d.Regressions)
	}
}

func TestCompareCatchesRegressions(t *testing.T) {
	old, err := Summarize(syntheticRun(t))
	if err != nil {
		t.Fatal(err)
	}
	worse := *old
	worse.FinalWorstCase = old.FinalWorstCase * 1.05 // +5% > 1% limit
	worse.NeighborEvals = old.NeighborEvals * 2      // +100% > 10% limit
	worse.DesignerInvocations = old.DesignerInvocations + 1

	d := Compare(old, &worse, DefaultThresholds())
	if !d.Regressed {
		t.Fatal("regression not detected")
	}
	joined := strings.Join(d.Regressions, "\n")
	for _, want := range []string{"final_worst_case_ms", "neighbor_evals", "designer_invocations"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing regression for %s in:\n%s", want, joined)
		}
	}
	// Improvements never regress.
	better := *old
	better.FinalWorstCase = old.FinalWorstCase * 0.5
	better.NeighborEvals = old.NeighborEvals / 2
	if d := Compare(old, &better, DefaultThresholds()); d.Regressed {
		t.Fatalf("improvement flagged as regression: %+v", d.Regressions)
	}

	var out bytes.Buffer
	if err := WriteDiffText(&out, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FAIL:") || !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("diff text missing verdict:\n%s", out.String())
	}
}

// Cache-ratio rows come out in name order, the same on every call: a
// served run's snapshot carries several caches.
func TestCompareCacheRowsSorted(t *testing.T) {
	s := &Summary{HasMetrics: true, CacheHitRatio: map[string]float64{
		"shared-unitcost": 0.5, "evalcache": 0.75, "neighbor": 0.25,
	}}
	want := []string{"cache_hit_ratio_evalcache", "cache_hit_ratio_neighbor", "cache_hit_ratio_shared-unitcost"}
	for i := 0; i < 20; i++ {
		var got []string
		for _, row := range Compare(s, s, DefaultThresholds()).Rows {
			if strings.HasPrefix(row.Metric, "cache_hit_ratio_") {
				got = append(got, row.Metric)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: cache rows %v, want %v", i, got, want)
		}
	}
}

func TestCompareWallClockGate(t *testing.T) {
	s, err := Summarize(syntheticRun(t))
	if err != nil {
		t.Fatal(err)
	}
	slower := *s
	slower.WallMs = s.WallMs * 3 // +200% > 50% limit
	if d := Compare(s, &slower, DefaultThresholds()); !d.Regressed {
		t.Fatal("wall-clock regression not detected")
	}
	// Without spans on one side the wall gate must not fire.
	noSpans := *s
	noSpans.HasSpans = false
	if d := Compare(s, &noSpans, DefaultThresholds()); d.Regressed {
		t.Fatalf("wall gate fired without spans: %+v", d.Regressions)
	}
}

func TestCheck(t *testing.T) {
	s, err := Summarize(syntheticRun(t))
	if err != nil {
		t.Fatal(err)
	}
	if bad := Check(s, s); len(bad) != 0 {
		t.Fatalf("self-check failed: %v", bad)
	}
	// Wall-clock drift must not fail Check.
	timing := *s
	timing.WallMs = s.WallMs * 100
	timing.HasSpans = false
	if bad := Check(&timing, s); len(bad) != 0 {
		t.Fatalf("wall-clock fields leaked into Check: %v", bad)
	}
	// Deterministic drift must.
	drift := *s
	drift.FinalWorstCase += 1
	drift.Iterations += 1
	bad := Check(&drift, s)
	if len(bad) != 2 {
		t.Fatalf("want 2 mismatches, got %v", bad)
	}
	shorter := *s
	shorter.Convergence = s.Convergence[:1]
	if bad := Check(&shorter, s); len(bad) == 0 {
		t.Fatal("truncated convergence curve not detected")
	}
}
