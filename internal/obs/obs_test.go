package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)                    // bucket 0
	h.Observe(1 * time.Microsecond) // bucket 0
	h.Observe(2 * time.Microsecond) // bucket 1
	h.Observe(3 * time.Microsecond) // bucket 2 (2,4]
	h.Observe(1 * time.Millisecond) // 1000µs -> bucket 10 (512,1024]
	h.Observe(100 * time.Hour)      // clamped to last bucket

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[2] != 1 || s.Buckets[10] != 1 {
		t.Fatalf("bucket layout wrong: %v", s.Buckets)
	}
	if s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("overflow observation not clamped to last bucket: %v", s.Buckets)
	}
	// Bucket invariant: bucketFor(us) holds us within (upper/2, upper].
	for _, us := range []uint64{1, 2, 3, 4, 5, 1000, 1024, 1025, 1 << 20} {
		b := bucketFor(us)
		if us > BucketUpperUs(b) {
			t.Fatalf("us=%d above its bucket %d upper %d", us, b, BucketUpperUs(b))
		}
		if b > 0 && us <= BucketUpperUs(b-1) {
			t.Fatalf("us=%d fits in a lower bucket than %d", us, b)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestMultiObserver(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing must be nil")
	}
	var a, b Recorder
	if got := Multi(&a, nil); got != &a {
		t.Fatal("Multi of one observer must return it unchanged")
	}
	m := Multi(&a, Multi(&b, nil))
	m.OnEvent(IterationStart{Iteration: 3})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("fan-out failed: %d/%d", len(a.Events()), len(b.Events()))
	}
	if ev, ok := a.Events()[0].(IterationStart); !ok || ev.Iteration != 3 {
		t.Fatalf("recorded event = %#v", a.Events()[0])
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.now = func() time.Time { return time.Unix(1700000000, 0).UTC() }

	events := []Event{
		NeighborhoodSampled{Gamma: 0.002, Requested: 40, Produced: 41},
		DesignerInvoked{Iteration: -1, Designer: "VerticaDBD", Queries: 12, Structures: 5, SizeBytes: 1 << 28},
		IterationStart{Iteration: 0, Alpha: 1, WorstCase: 900},
		NeighborEvaluated{Iteration: 0, Phase: PhaseRank, Index: 7, Cost: 123.5},
		NeighborEvaluated{Iteration: 0, Phase: PhaseRank, Index: 8, Uncostable: true},
		MoveAccepted{Iteration: 0, Alpha: 1, WorstCase: 850, Previous: 900},
		IterationEnd{Iteration: 0, Alpha: 1, WorstCase: 900, CandidateCost: 850, Improved: true},
		MoveRejected{Iteration: 1, Alpha: 5, CandidateCost: 870, WorstCase: 850},
	}
	for _, ev := range events {
		sink.OnEvent(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	// One line per event plus the schema header.
	if got := strings.Count(buf.String(), "\n"); got != len(events)+1 {
		t.Fatalf("%d lines, want %d", got, len(events)+1)
	}
	header := buf.String()[:strings.IndexByte(buf.String(), '\n')]
	if !strings.Contains(header, `"schema":1`) || !strings.Contains(header, `"stream":"events"`) {
		t.Fatalf("first line is not a v1 events header: %s", header)
	}

	decoded, err := DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i, d := range decoded {
		if d.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq = %d", i, d.Seq)
		}
		if d.Event != events[i] {
			t.Fatalf("record %d: %#v != %#v", i, d.Event, events[i])
		}
	}
}

func TestDecodeJSONLRejectsUnknownType(t *testing.T) {
	line := `{"seq":1,"ts":"2024-01-01T00:00:00Z","type":"mystery","event":{}}`
	if _, err := DecodeJSONL(strings.NewReader(line)); err == nil {
		t.Fatal("unknown event type must fail decoding")
	}
}

func TestDecodeJSONLHeaderHandling(t *testing.T) {
	event := `{"seq":1,"ts":"2024-01-01T00:00:00Z","type":"iteration_start","event":{"iteration":0,"alpha":1,"worst_case":9}}`

	// A PR 2-era stream has no header and must still decode.
	got, err := DecodeJSONL(strings.NewReader(event))
	if err != nil || len(got) != 1 {
		t.Fatalf("headerless stream: %v (%d events)", err, len(got))
	}

	// The current header is accepted and skipped.
	got, err = DecodeJSONL(strings.NewReader(`{"schema":1,"stream":"events"}` + "\n" + event))
	if err != nil || len(got) != 1 {
		t.Fatalf("v1 header: %v (%d events)", err, len(got))
	}

	// Unknown versions are a loud error.
	if _, err := DecodeJSONL(strings.NewReader(`{"schema":99,"stream":"events"}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version must fail clearly, got %v", err)
	}

	// Duplicate (or late) headers are an error.
	dup := `{"schema":1,"stream":"events"}` + "\n" + event + "\n" + `{"schema":1,"stream":"events"}`
	if _, err := DecodeJSONL(strings.NewReader(dup)); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate header must fail, got %v", err)
	}

	// A span stream fed to the event decoder is rejected up front.
	if _, err := DecodeJSONL(strings.NewReader(`{"schema":1,"stream":"spans"}`)); err == nil ||
		!strings.Contains(err.Error(), "spans") {
		t.Fatalf("stream mismatch must fail, got %v", err)
	}
}

func TestJSONLSinkFlushNoEventLoss(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	const n = 5000 // far beyond one bufio buffer, forcing interior flushes
	for i := 0; i < n; i++ {
		sink.OnEvent(NeighborEvaluated{Iteration: i / 100, Phase: PhaseRank, Index: i % 100, Cost: float64(i)})
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != n {
		t.Fatalf("decoded %d events, want %d (events lost without Flush?)", len(decoded), n)
	}
	for i, d := range decoded {
		if d.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, d.Seq)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	// Empty histogram: every quantile is 0.
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %g, want 0", got)
	}

	// All observations in the 0-1µs bucket: quantiles interpolate in [0, 1].
	var tiny Histogram
	for i := 0; i < 10; i++ {
		tiny.Observe(500 * time.Nanosecond)
	}
	s := tiny.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		got := s.Quantile(q)
		if got < 0 || got > 1 {
			t.Fatalf("0-1µs bucket q=%g -> %gµs, want within [0, 1]", q, got)
		}
	}
	if p10, p90 := s.Quantile(0.1), s.Quantile(0.9); p10 > p90 {
		t.Fatalf("quantiles not monotone: p10=%g > p90=%g", p10, p90)
	}

	// A clamped overflow observation must not extrapolate past the last
	// bucket's lower bound.
	var huge Histogram
	huge.Observe(100 * time.Hour)
	if got, want := huge.Snapshot().Quantile(0.99), float64(BucketUpperUs(histBuckets-2)); got != want {
		t.Fatalf("clamped bucket quantile = %g, want lower bound %g", got, want)
	}

	// Interpolation sanity: 100 observations at ~3µs land in bucket (2, 4];
	// the median must stay inside that bucket.
	var mid Histogram
	for i := 0; i < 100; i++ {
		mid.Observe(3 * time.Microsecond)
	}
	if got := mid.Snapshot().Quantile(0.5); got <= 2 || got > 4 {
		t.Fatalf("p50 of 3µs observations = %gµs, want within (2, 4]", got)
	}

	// Out-of-range q is clamped, not a panic.
	if got := mid.Snapshot().Quantile(2); got <= 0 {
		t.Fatalf("q>1 must clamp to max, got %g", got)
	}
	if got := mid.Snapshot().Quantile(-1); got <= 0 {
		t.Fatalf("q<0 must clamp to min, got %g", got)
	}
}

func TestProgressReporter(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressReporter(&buf)
	p.OnEvent(NeighborhoodSampled{Gamma: 0.002, Requested: 10, Produced: 11})
	p.OnEvent(DesignerInvoked{Iteration: -1, Designer: "VerticaDBD", Queries: 4, Structures: 2, SizeBytes: 64 << 20})
	p.OnEvent(IterationStart{Iteration: 0, Alpha: 1, WorstCase: 500})
	for i := 0; i < 11; i++ {
		p.OnEvent(NeighborEvaluated{Iteration: 0, Phase: PhaseRank, Index: i, Cost: 1})
	}
	p.OnEvent(IterationEnd{Iteration: 0, Alpha: 1, WorstCase: 500, CandidateCost: 450, Improved: true})
	out := buf.String()
	for _, want := range []string{"neighborhood: 11 workloads", "designer VerticaDBD (initial)", "iter  0", "accepted", "11 evals"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsPrometheusAndExpvar(t *testing.T) {
	m := NewMetrics()
	m.SamplerDraws.Add(40)
	m.CostModelCalls.Add(1234)
	m.MovesAccepted.Inc()
	m.PoolQueueDepth.Set(3)
	m.EvalLatency.Observe(2 * time.Millisecond)
	m.RegisterCache("evalcache", func() CacheStats {
		return CacheStats{Hits: 10, Misses: 4, Entries: 4}
	})

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cliffguard_sampler_draws_total 40",
		"cliffguard_costmodel_calls_total 1234",
		"cliffguard_moves_accepted_total 1",
		"cliffguard_pool_queue_depth 3",
		`cliffguard_phase_latency_seconds_count{phase="eval"} 1`,
		`cliffguard_phase_latency_quantile_seconds{phase="eval",quantile="0.5"}`,
		`cliffguard_costcache_hits_total{cache="evalcache"} 10`,
		`cliffguard_costcache_misses_total{cache="evalcache"} 4`,
		`cliffguard_costcache_entries{cache="evalcache"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	rec := httptest.NewRecorder()
	m.VarsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/vars", nil))
	jsonOut := rec.Body.String()
	for _, want := range []string{`"costmodel_calls":1234`, `"sampler_draws":40`, `"evalcache"`} {
		if !strings.Contains(jsonOut, want) {
			t.Fatalf("/vars output missing %q:\n%s", want, jsonOut)
		}
	}

	// A nil registry must be inert everywhere.
	var nilM *Metrics
	if err := nilM.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	nilM.RegisterCache("x", func() CacheStats { return CacheStats{} })
	if nilM.CacheSnapshots() != nil {
		t.Fatal("nil metrics must have no caches")
	}
}

func TestServeMetrics(t *testing.T) {
	m := NewMetrics()
	m.IterationsCompleted.Add(7)
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "cliffguard_iterations_completed_total 7") {
		t.Fatalf("/metrics output wrong:\n%s", out)
	}
	if out := get("/vars"); !strings.Contains(out, `"iterations_completed":7`) {
		t.Fatalf("/vars output wrong:\n%s", out)
	}
}
