package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"cliffguard/internal/core"
	"cliffguard/internal/datagen"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
)

// TestTerminalStatusImpliesSpans is the regression test for a run reported
// "done" before its span stream was finished: a poller that sees a
// terminal Status must be able to read a span stream holding the run span,
// which is what GET .../spans serves once the run is terminal.
func TestTerminalStatusImpliesSpans(t *testing.T) {
	s := datagen.Warehouse(1)
	w, _, err := ParseWorkload(s, strings.NewReader(testSQL(t)), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Open(engine.Spec{Kind: engine.KindRowStore, Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		h, err := StartRun(context.Background(), RunSpec{
			Opened:   eng,
			Options:  core.Options{Gamma: 0.0008, Samples: 1, Iterations: 1, Seed: int64(i), Parallelism: 1},
			Workload: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		for !h.Status().Terminal() {
		}
		spans, err := obs.DecodeSpans(bytes.NewReader(h.SpansJSONL()))
		if err != nil {
			t.Fatalf("run %d: decoding spans: %v", i, err)
		}
		found := false
		for _, sp := range spans {
			found = found || (sp.Kind == obs.SpanKindSpan && sp.Name == obs.SpanRun)
		}
		if !found {
			t.Fatalf("run %d: status %s but the span stream has no %s span (%d records)",
				i, h.Status(), obs.SpanRun, len(spans))
		}
	}
}
