package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/obs"
)

// sampleVars populates a real registry with a small served run and returns
// its /vars body decoded back into a snapshot: 4 healthz requests at 0.5 ms,
// 2 run submissions at 5 ms, tenant acme's 2 runs (2 ms queue wait, 750 ms
// duration, 30 shared-memo hits to 10 misses) and 3 overloaded rejections.
func sampleVars(t *testing.T) obs.MetricsSnapshot {
	t.Helper()
	m := obs.NewMetrics()
	for i := 0; i < 4; i++ {
		m.HTTPRequestLatency.Observe(obs.ServiceKey("GET /v1/healthz", "2xx"), 500*time.Microsecond)
	}
	for i := 0; i < 2; i++ {
		m.HTTPRequestLatency.Observe(obs.ServiceKey("POST /v1/tenants/{tenant}/runs", "2xx"), 5*time.Millisecond)
		m.TenantRuns.Inc("acme")
		m.TenantQueueWait.Observe("acme", 2*time.Millisecond)
		m.TenantRunDuration.Observe("acme", 750*time.Millisecond)
	}
	m.AdmissionRejections.Add("overloaded", 3)
	m.SharedHitsByTenant.Add("acme", 30)
	m.SharedMissByTenant.Add("acme", 10)
	m.SamplerDraws.Add(120)
	raw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var vars obs.MetricsSnapshot
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatal(err)
	}
	return vars
}

func TestSummarizeServe(t *testing.T) {
	requestz := []byte(`{"schema":1,"data":{"capacity":256,"total":7,"dropped":1,"requests":[
		{"status":200},{"status":404},{"status":503}]}}`)
	runz := []byte(`{"schema":1,"data":{"capacity":256,"total":6,"dropped":0,"transitions":[
		{"to":"queued"},{"to":"running"},{"to":"done"},{"to":"queued"}]}}`)
	s, err := SummarizeServe(sampleVars(t), requestz, runz)
	if err != nil {
		t.Fatal(err)
	}
	if s.Requests != 6 {
		t.Fatalf("total requests = %d, want 6", s.Requests)
	}
	if len(s.Routes) != 2 || s.Routes[0].Route != "GET /v1/healthz" || s.Routes[0].Status != "2xx" ||
		s.Routes[0].Count != 4 || s.Routes[1].Count != 2 {
		t.Fatalf("routes: %+v", s.Routes)
	}
	if s.Routes[0].MeanMs != 0.5 || s.Routes[1].MeanMs != 5 {
		t.Fatalf("route means = %g, %gms, want 0.5, 5", s.Routes[0].MeanMs, s.Routes[1].MeanMs)
	}
	if len(s.Tenants) != 1 {
		t.Fatalf("tenants: %+v", s.Tenants)
	}
	acme := s.Tenants[0]
	if acme.Runs != 2 || acme.QueueWaitCount != 2 || acme.QueueWaitMeanMs != 2 ||
		acme.RunDurationCount != 2 || acme.RunDurationMeanMs != 750 {
		t.Fatalf("acme stats: %+v", acme)
	}
	if acme.SharedHitRatio == nil || *acme.SharedHitRatio != 0.75 {
		t.Fatalf("acme hit ratio: %v", acme.SharedHitRatio)
	}
	if s.Rejections["overloaded"] != 3 {
		t.Fatalf("rejections: %+v", s.Rejections)
	}
	if s.Flight == nil || s.Flight.Requests != 3 || s.Flight.ErrorRequests != 2 ||
		s.Flight.RequestsDropped != 1 {
		t.Fatalf("flight request stats: %+v", s.Flight)
	}
	if s.Flight.Transitions != 4 || s.Flight.RunsByState["queued"] != 2 || s.Flight.RunsByState["done"] != 1 {
		t.Fatalf("flight run stats: %+v", s.Flight)
	}

	var buf bytes.Buffer
	if err := WriteServeSummaryText(&buf, s); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"serve summary (6 requests)",
		"GET /v1/healthz",
		"tenant acme",
		"queue wait",
		"75.0% hits",
		"rejections overloaded 3",
		"flight recorder",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text render missing %q in:\n%s", want, text)
		}
	}
}

// A metrics-only summary (no flight dumps) omits the flight section.
func TestSummarizeServeMetricsOnly(t *testing.T) {
	s, err := SummarizeServe(sampleVars(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Flight != nil {
		t.Fatalf("metrics-only summary has flight stats: %+v", s.Flight)
	}
}
