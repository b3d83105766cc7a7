package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLabeledHistogram(t *testing.T) {
	var h LabeledHistogram
	if got := h.Labels(); len(got) != 0 {
		t.Fatalf("fresh labeled histogram has labels: %v", got)
	}
	h.Observe("b", 2*time.Millisecond)
	h.Observe("a", 1*time.Millisecond)
	h.Observe("a", 3*time.Millisecond)
	if got, want := h.Labels(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Labels() = %v, want %v (sorted)", got, want)
	}
	snap := h.Snapshot()
	if snap["a"].Count != 2 || snap["b"].Count != 1 {
		t.Fatalf("snapshot counts: a=%d b=%d", snap["a"].Count, snap["b"].Count)
	}
	if snap["a"].SumUs != 4000 {
		t.Fatalf("a sum = %dµs, want 4000", snap["a"].SumUs)
	}
}

func TestLabeledHistogramConcurrent(t *testing.T) {
	var h LabeledHistogram
	var wg sync.WaitGroup
	labels := []string{"x", "y", "z"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(labels[(i+j)%len(labels)], time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	total := uint64(0)
	for _, s := range h.Snapshot() {
		total += s.Count
	}
	if total != 8000 {
		t.Fatalf("lost observations: %d, want 8000", total)
	}
}

func TestServiceKeyRoundTrip(t *testing.T) {
	key := ServiceKey("GET /v1/tenants/{tenant}", "2xx")
	route, class := SplitServiceKey(key)
	if route != "GET /v1/tenants/{tenant}" || class != "2xx" {
		t.Fatalf("round trip: %q -> (%q, %q)", key, route, class)
	}
	if r, c := SplitServiceKey("no-separator"); r != "no-separator" || c != "" {
		t.Fatalf("separator-free key: (%q, %q)", r, c)
	}
}

// The service families must render in both exporters with split labels, and
// stay entirely absent from a registry that never served HTTP traffic.
func TestServiceMetricsExport(t *testing.T) {
	m := NewMetrics()

	var before bytes.Buffer
	if err := m.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.String(), "cliffguard_http_request") {
		t.Fatal("library-only registry leaked service families")
	}
	serviceKeys := []string{
		"http_request_latency", "tenant_runs", "tenant_queue_wait",
		"tenant_run_duration", "admission_rejections",
		"shared_hits_by_tenant", "shared_misses_by_tenant",
	}
	vars := func() map[string]any {
		raw, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var dump map[string]any
		if err := json.Unmarshal(raw, &dump); err != nil {
			t.Fatal(err)
		}
		return dump
	}
	empty := vars()
	for _, key := range serviceKeys {
		if _, ok := empty[key]; ok {
			t.Fatalf("library-only snapshot carries service family %q", key)
		}
	}

	m.HTTPRequestLatency.Observe(ServiceKey("GET /v1/healthz", "2xx"), time.Millisecond)
	m.HTTPRequestLatency.Observe(ServiceKey("POST /v1/tenants", "4xx"), 2*time.Millisecond)
	m.TenantRuns.Inc("acme")
	m.TenantQueueWait.Observe("acme", 5*time.Millisecond)
	m.TenantRunDuration.Observe("acme", 50*time.Millisecond)
	m.AdmissionRejections.Inc("overloaded")
	m.SharedHitsByTenant.Add("acme", 3)
	m.SharedMissByTenant.Inc("acme")

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		`cliffguard_http_request_latency_seconds_bucket{route="GET /v1/healthz",status="2xx",le="+Inf"} 1`,
		`cliffguard_http_request_latency_seconds_count{route="POST /v1/tenants",status="4xx"} 1`,
		`cliffguard_http_requests_total{route="GET /v1/healthz",status="2xx"} 1`,
		`cliffguard_tenant_runs_total{tenant="acme"} 1`,
		`cliffguard_tenant_queue_wait_seconds_count{tenant="acme"} 1`,
		`cliffguard_tenant_run_duration_seconds_count{tenant="acme"} 1`,
		`cliffguard_admission_rejections_total{code="overloaded"} 1`,
		`cliffguard_shared_unitcost_tenant_hits_total{tenant="acme"} 3`,
		`cliffguard_shared_unitcost_tenant_misses_total{tenant="acme"} 1`,
		`cliffguard_shared_unitcost_tenant_hit_ratio{tenant="acme"} 0.75`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}

	dump := vars()
	for _, key := range serviceKeys {
		if _, ok := dump[key]; !ok {
			t.Errorf("snapshot missing service family %q", key)
		}
	}
	snap := m.Snapshot()
	if snap.TenantRuns["acme"] != 1 || snap.AdmissionRejections["overloaded"] != 1 {
		t.Fatalf("snapshot missing service counters: %+v", snap)
	}
	if snap.TenantQueueWait["acme"].Count != 1 || snap.HTTPRequestLatency[ServiceKey("GET /v1/healthz", "2xx")].Count != 1 {
		t.Fatalf("snapshot missing service latencies: %+v", snap)
	}
}

// Every Counter of the registry is listed twice by hand: in
// MetricsSnapshot (JSON key k, via the field of the same name) and in
// WritePrometheus (cliffguard_<k>_total). A counter added to one list only
// fails here.
func TestCounterListsAgree(t *testing.T) {
	m := NewMetrics()
	rv := reflect.ValueOf(m).Elem()
	counterType := reflect.TypeOf((*Counter)(nil)).Elem()
	want := map[string]uint64{} // Metrics field name -> value
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.Type == counterType {
			v := uint64(1000 + i)
			rv.Field(i).Addr().Interface().(*Counter).Add(v)
			want[f.Name] = v
		}
	}
	if len(want) == 0 {
		t.Fatal("no Counter fields found")
	}
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	if err := m.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	snapType := reflect.TypeOf(MetricsSnapshot{})
	for name, v := range want {
		f, ok := snapType.FieldByName(name)
		if !ok {
			t.Errorf("counter %s has no MetricsSnapshot field", name)
			continue
		}
		k, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if got, ok := dump[k].(float64); !ok || got != float64(v) {
			t.Errorf("snapshot key %q = %v, want %d (counter %s)", k, dump[k], v, name)
		}
		if line := fmt.Sprintf("\ncliffguard_%s_total %d\n", k, v); !strings.Contains(page.String(), line) {
			t.Errorf("Prometheus page lacks %q (counter %s)", strings.TrimSpace(line), name)
		}
	}
}

// RecordSpan and SetRequestID: explicit spans land after the header, the
// request ID stamps every subsequent record, and both decode back.
func TestSpanRecorderRequestIDAndRecordSpan(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0).UTC()}
	base := clock.t
	var buf bytes.Buffer
	rec := NewSpanRecorder(&buf)
	rec.now = clock.now

	rec.SetRequestID("req-42")
	rec.RecordSpan(SpanQueueWait, -1, base.Add(-30*time.Millisecond), base)
	rec.OnEvent(IterationStart{Iteration: 0})
	rec.OnEvent(IterationEnd{Iteration: 0})
	if err := rec.Finish(nil); err != nil {
		t.Fatal(err)
	}

	spans, err := DecodeSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans decoded")
	}
	if spans[0].Name != SpanQueueWait || spans[0].Kind != SpanKindSpan {
		t.Fatalf("first span = %s/%s, want %s first", spans[0].Kind, spans[0].Name, SpanQueueWait)
	}
	if spans[0].DurUs != 30_000 {
		t.Fatalf("queue-wait duration = %dµs, want 30000", spans[0].DurUs)
	}
	for i, sp := range spans {
		if sp.RequestID != "req-42" {
			t.Fatalf("span %d (%s/%s) request_id = %q, want req-42", i, sp.Kind, sp.Name, sp.RequestID)
		}
	}
}

// Without SetRequestID nothing changes: the stream stays request-ID-free, so
// library runs serialize exactly as before this field existed.
func TestSpanRecorderNoRequestIDByDefault(t *testing.T) {
	var buf bytes.Buffer
	rec := NewSpanRecorder(&buf)
	rec.OnEvent(IterationStart{Iteration: 0})
	rec.OnEvent(IterationEnd{Iteration: 0})
	if err := rec.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("request_id")) {
		t.Fatal("span stream has request_id fields without SetRequestID")
	}
}
