package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The telemetry non-interference gate: a run submitted through the fully
// instrumented HTTP path (request tracing, access log, flight recorder,
// per-tenant metrics, shared memo) must render a byte-identical canonical
// event stream — and an identical design — to a bare library StartRun, at
// parallelism 1 and at NumCPU.
func TestTelemetryNonInterference(t *testing.T) {
	sql := testSQL(t)
	for _, parallelism := range []int{1, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("p%d", parallelism), func(t *testing.T) {
			logBuf := &syncBuffer{}
			srv := NewServer(Config{
				Workers: 2,
				Logger:  slog.New(slog.NewJSONHandler(logBuf, nil)),
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := ts.Client()

			call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
				`{"id":"traced","engine":{"kind":"rowstore"}}`)
			call(t, client, "POST", ts.URL+"/v1/tenants/traced/workload", "text/plain", sql)
			body := fmt.Sprintf(`{"gamma":0.0008,"samples":8,"iterations":3,"seed":7,"parallelism":%d}`, parallelism)
			_, env := call(t, client, "POST", ts.URL+"/v1/tenants/traced/runs", "application/json", body)
			var ri RunInfo
			reencode(t, env.Data, &ri)
			runURL := ts.URL + "/v1/tenants/traced/runs/" + ri.ID
			if final := pollRun(t, client, runURL); final.Status != string(StatusDone) {
				t.Fatalf("run finished %s: %s", final.Status, final.Error)
			}
			_, tracedStream := raw(t, client, runURL+"/events")

			// The bare library path: no server, no telemetry, no shared memo.
			w, _, err := ParseWorkload(datagen.Warehouse(1), strings.NewReader(sql), 1)
			if err != nil {
				t.Fatal(err)
			}
			var req RunRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
			h, err := StartRun(context.Background(), RunSpec{
				Engine:   engine.Spec{Kind: engine.KindRowStore},
				Options:  req.Options(),
				Workload: w,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.Await(context.Background()); err != nil {
				t.Fatal(err)
			}
			bareStream, err := h.EventsJSONL()
			if err != nil {
				t.Fatal(err)
			}

			if parallelism == 1 {
				if !bytes.Equal(tracedStream, bareStream) {
					t.Fatalf("telemetry perturbed the canonical event stream at p=1: %d vs %d bytes",
						len(tracedStream), len(bareStream))
				}
			} else {
				decoded, err := obs.DecodeJSONL(bytes.NewReader(tracedStream))
				if err != nil {
					t.Fatal(err)
				}
				tracedEvts := make([]obs.Event, len(decoded))
				for i, de := range decoded {
					tracedEvts[i] = de.Event
				}
				if a, b := canonicalEvents(tracedEvts), canonicalEvents(h.Events()); !reflect.DeepEqual(a, b) {
					t.Fatalf("telemetry perturbed the event stream beyond within-pass order: %d vs %d events",
						len(a), len(b))
				}
			}
			// The event stream itself must never carry a request ID.
			if bytes.Contains(tracedStream, []byte("request_id")) {
				t.Fatal("canonical event stream leaked a request_id field")
			}
			// The access log, by contrast, must: every record carries one.
			for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
				if line != "" && !strings.Contains(line, `"request_id"`) {
					t.Fatalf("log record without request_id: %s", line)
				}
			}
		})
	}
}

var hex32Re = regexp.MustCompile(`^[0-9a-f]{32}$`)

// Request-ID assignment and propagation: generated IDs are 32-hex
// (W3C-trace-id compatible), inbound X-Request-Id and traceparent trace-ids
// are honored, every response echoes the ID, and a submitted run threads it
// into RunInfo, TraceInfo, and the span stream's queue-wait span.
func TestRequestIDPropagation(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Generated: no inbound ID.
	resp, err := client.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(RequestIDHeader); !hex32Re.MatchString(id) {
		t.Fatalf("generated request ID %q is not 32 lowercase hex digits", id)
	}

	// Inbound X-Request-Id wins.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "client-chosen-42")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(RequestIDHeader); id != "client-chosen-42" {
		t.Fatalf("inbound request ID not echoed: got %q", id)
	}

	// A garbage inbound ID is replaced, not echoed.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "has spaces "+strings.Repeat("x", 200))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(RequestIDHeader); !hex32Re.MatchString(id) {
		t.Fatalf("garbage inbound ID not replaced: got %q", id)
	}

	// W3C traceparent: its trace-id becomes the request ID.
	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ = http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(RequestIDHeader); id != traceID {
		t.Fatalf("traceparent trace-id not adopted: got %q, want %q", id, traceID)
	}

	// Thread an explicit ID through a run.
	call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"rid","engine":{"kind":"rowstore"}}`)
	call(t, client, "POST", ts.URL+"/v1/tenants/rid/workload", "text/plain", testSQL(t))
	const runReqID = "trace-me-7"
	req, _ = http.NewRequest("POST", ts.URL+"/v1/tenants/rid/runs", strings.NewReader(testRunBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, runReqID)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var ri RunInfo
	reencode(t, env.Data, &ri)
	if ri.RequestID != runReqID {
		t.Fatalf("RunInfo.RequestID = %q, want %q", ri.RequestID, runReqID)
	}
	runURL := ts.URL + "/v1/tenants/rid/runs/" + ri.ID
	if final := pollRun(t, client, runURL); final.RequestID != runReqID {
		t.Fatalf("polled RunInfo.RequestID = %q, want %q", final.RequestID, runReqID)
	}
	_, tenv := call(t, client, "GET", runURL+"/trace", "", "")
	var ti TraceInfo
	reencode(t, tenv.Data, &ti)
	if ti.RequestID != runReqID {
		t.Fatalf("TraceInfo.RequestID = %q, want %q", ti.RequestID, runReqID)
	}

	// The span stream links the request to the run: a queue_wait span
	// stamped with the originating request ID, plus the ID on every record.
	code, spanStream := raw(t, client, runURL+"/spans")
	if code != http.StatusOK {
		t.Fatalf("spans: %d", code)
	}
	spans, err := obs.DecodeSpans(bytes.NewReader(spanStream))
	if err != nil {
		t.Fatal(err)
	}
	foundWait := false
	for _, sp := range spans {
		if sp.RequestID != runReqID {
			t.Fatalf("span %s/%s has request_id %q, want %q", sp.Kind, sp.Name, sp.RequestID, runReqID)
		}
		if sp.Kind == obs.SpanKindSpan && sp.Name == obs.SpanQueueWait {
			foundWait = true
			if sp.DurUs < 0 || sp.End.Before(sp.Start) {
				t.Fatalf("queue_wait span is inverted: %+v", sp)
			}
		}
	}
	if !foundWait {
		t.Fatalf("span stream has no %s span (%d spans)", obs.SpanQueueWait, len(spans))
	}
}

// The readiness probe's drain sequence: ready while serving, 503 "draining"
// the moment Shutdown begins (before the drain completes), and 503
// "saturated" while the admission queue is full.
func TestReadyzDrainSequenceAndSaturation(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		srv := NewServer(Config{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()

		code, env := call(t, client, "GET", ts.URL+"/v1/readyz", "", "")
		if code != http.StatusOK {
			t.Fatalf("readyz while serving: %d %+v", code, env.Error)
		}
		var ready ReadyInfo
		reencode(t, env.Data, &ready)
		if !ready.Ready || ready.Workers != 1 {
			t.Fatalf("readyz payload: %+v", ready)
		}
		// healthz (liveness) stays 200 across the whole drain.
		if code, _ := call(t, client, "GET", ts.URL+"/v1/healthz", "", ""); code != http.StatusOK {
			t.Fatalf("healthz before drain: %d", code)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(ctx) }()
		for !srv.Draining() {
			time.Sleep(time.Millisecond)
		}
		code, env = call(t, client, "GET", ts.URL+"/v1/readyz", "", "")
		if code != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != "draining" {
			t.Fatalf("readyz while draining: %d %+v", code, env.Error)
		}
		if code, _ := call(t, client, "GET", ts.URL+"/v1/healthz", "", ""); code != http.StatusOK {
			t.Fatalf("healthz while draining: %d (liveness must not flap)", code)
		}
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	})

	t.Run("saturated", func(t *testing.T) {
		srv := NewServer(Config{Workers: 1, QueueDepth: 1})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()

		tn, err := srv.CreateTenant("sat", engine.Spec{Kind: engine.KindRowStore}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tn.Ingest(strings.NewReader(testSQL(t))); err != nil {
			t.Fatal(err)
		}
		// Hold the only worker slot so the submission below stays queued.
		srv.slots <- struct{}{}
		defer func() { <-srv.slots }()
		var req RunRequest
		if err := json.Unmarshal([]byte(testRunBody), &req); err != nil {
			t.Fatal(err)
		}
		r, err := srv.Submit(tn, req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.cancel()

		code, env := call(t, client, "GET", ts.URL+"/v1/readyz", "", "")
		if code != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != "saturated" {
			t.Fatalf("readyz while saturated: %d %+v", code, env.Error)
		}
	})
}

// Oversized request bodies get a deterministic 413 envelope on both body
// flavors: text/plain workload ingest and JSON endpoints.
func TestMaxBodyBytesRejectsOversized(t *testing.T) {
	sql := testSQL(t)
	firstLine := strings.SplitN(sql, "\n", 2)[0] + "\n"
	cap := int64(len(firstLine) + 100)
	srv := NewServer(Config{Workers: 1, MaxBodyBytes: cap})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"cap","engine":{"kind":"rowstore"}}`)

	code, env := call(t, client, "POST", ts.URL+"/v1/tenants/cap/workload", "text/plain", sql)
	if code != http.StatusRequestEntityTooLarge || env.Error == nil || env.Error.Code != "body_too_large" {
		t.Fatalf("oversized workload: %d %+v, want 413 body_too_large", code, env.Error)
	}

	bigJSON := `{"id":"x","engine":{"kind":"rowstore"},"pad":"` +
		strings.Repeat("a", int(cap)+4096) + `"}`
	code, env = call(t, client, "POST", ts.URL+"/v1/tenants", "application/json", bigJSON)
	if code != http.StatusRequestEntityTooLarge || env.Error == nil || env.Error.Code != "body_too_large" {
		t.Fatalf("oversized JSON: %d %+v, want 413 body_too_large", code, env.Error)
	}

	// A body under the cap still works.
	code, env = call(t, client, "POST", ts.URL+"/v1/tenants/cap/workload", "text/plain", firstLine)
	if code != http.StatusOK {
		t.Fatalf("small body rejected: %d %+v", code, env.Error)
	}
}

// The flight recorder: /v1/debug/requestz sees every request with its route,
// status, and ID; /v1/debug/runz sees the run lifecycle; both rings stay
// bounded at FlightDepth and count what they dropped.
func TestFlightRecorder(t *testing.T) {
	const depth = 4
	srv := NewServer(Config{Workers: 1, FlightDepth: depth})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// More requests than the ring holds, one with a known ID, one a 404.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "flight-1")
	if resp, err := client.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	call(t, client, "GET", ts.URL+"/v1/tenants/ghost", "", "")
	for i := 0; i < depth; i++ {
		call(t, client, "GET", ts.URL+"/v1/statez", "", "")
	}

	code, env := call(t, client, "GET", ts.URL+"/v1/debug/requestz", "", "")
	if code != http.StatusOK {
		t.Fatalf("requestz: %d %+v", code, env.Error)
	}
	var rz RequestzInfo
	reencode(t, env.Data, &rz)
	if rz.Capacity != depth || len(rz.Requests) != depth {
		t.Fatalf("requestz ring: capacity %d, %d records, want %d", rz.Capacity, len(rz.Requests), depth)
	}
	if rz.Dropped == 0 || rz.Total != rz.Dropped+uint64(depth) {
		t.Fatalf("requestz bookkeeping: total %d dropped %d", rz.Total, rz.Dropped)
	}
	for _, rec := range rz.Requests {
		if rec.RequestID == "" || rec.Route == "" || rec.Status == 0 {
			t.Fatalf("incomplete flight record: %+v", rec)
		}
		if rec.Route != "GET /v1/statez" {
			t.Fatalf("ring should hold only the trailing statez requests, got %+v", rec)
		}
	}

	// Run transitions: queued -> running -> done, all tagged with the run's
	// request ID.
	call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"flighty","engine":{"kind":"rowstore"}}`)
	call(t, client, "POST", ts.URL+"/v1/tenants/flighty/workload", "text/plain", testSQL(t))
	req, _ = http.NewRequest("POST", ts.URL+"/v1/tenants/flighty/runs", strings.NewReader(testRunBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "flight-run")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var senv envelope
	if err := json.NewDecoder(resp.Body).Decode(&senv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var ri RunInfo
	reencode(t, senv.Data, &ri)
	pollRun(t, client, ts.URL+"/v1/tenants/flighty/runs/"+ri.ID)

	_, env = call(t, client, "GET", ts.URL+"/v1/debug/runz", "", "")
	var runz RunzInfo
	reencode(t, env.Data, &runz)
	want := map[string]bool{string(StatusQueued): false, string(StatusRunning): false, string(StatusDone): false}
	for _, tr := range runz.Transitions {
		if tr.Run != ri.ID {
			continue
		}
		if tr.RequestID != "flight-run" {
			t.Fatalf("transition %+v lost the request ID", tr)
		}
		if _, ok := want[tr.To]; ok {
			want[tr.To] = true
		}
	}
	for state, seen := range want {
		if !seen {
			t.Fatalf("runz has no transition into %q: %+v", state, runz.Transitions)
		}
	}
}

// /vars serves the registry's MetricsSnapshot on both mounts, the CLIs'
// obs.Serve listener and the daemon's handler: each body decodes to what a
// JSON round trip of Snapshot gives.
func TestVarsServesMetricsSnapshot(t *testing.T) {
	m := obs.NewMetrics()
	srv := NewServer(Config{Workers: 1, Metrics: m})
	defer srv.Shutdown(context.Background())
	m.SamplerDraws.Add(40)
	m.CostModelCalls.Add(1234)
	m.OnlineObserved.Add(9)
	m.PortfolioWins.Inc("advisor")
	m.EvalLatency.Observe(3 * time.Millisecond)
	m.HTTPRequestLatency.Observe(obs.ServiceKey("GET /v1/healthz", "2xx"), 700*time.Microsecond)
	m.TenantRuns.Inc("acme")
	m.TenantQueueWait.Observe("acme", 2*time.Millisecond)
	m.TenantRunDuration.Observe("acme", 40*time.Millisecond)
	m.AdmissionRejections.Inc("overloaded")
	m.SharedHitsByTenant.Add("acme", 3)
	m.SharedMissByTenant.Inc("acme")
	m.RegisterCache("evalcache", func() obs.CacheStats {
		return obs.CacheStats{Hits: 10, Misses: 4, Entries: 4}
	})

	roundTrip := func(raw []byte) obs.MetricsSnapshot {
		t.Helper()
		var snap obs.MetricsSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
		return snap
	}
	wantRaw, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := roundTrip(wantRaw)

	// obs.Serve first: the daemon's middleware records its own /vars
	// request after answering it.
	ms, err := obs.Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, url := range []string{"http://" + ms.Addr + "/vars", ts.URL + "/vars"} {
		code, body := raw(t, ts.Client(), url)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", url, code)
		}
		if got := roundTrip(body); !reflect.DeepEqual(got, want) {
			t.Errorf("GET %s:\n got %+v\nwant %+v", url, got, want)
		}
	}
}

// The live service metrics: after real traffic, /metrics must expose the
// per-route × status-class latency family, per-tenant run/queue-wait series,
// and per-tenant shared-memo attribution; /vars carries the same families
// at the MetricsSnapshot's top-level keys. After two tenants' runs over one
// workload, the shared store's scraped families equal /v1/statez's
// shared_cache, and no per-stripe family is left.
func TestServiceMetricsExposed(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	sql := testSQL(t)

	call(t, client, "GET", ts.URL+"/v1/healthz", "", "")
	for _, tenant := range []string{"metered", "peer"} {
		call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
			fmt.Sprintf(`{"id":%q,"engine":{"kind":"rowstore"}}`, tenant))
		call(t, client, "POST", ts.URL+"/v1/tenants/"+tenant+"/workload", "text/plain", sql)
		_, env := call(t, client, "POST", ts.URL+"/v1/tenants/"+tenant+"/runs", "application/json", testRunBody)
		var ri RunInfo
		reencode(t, env.Data, &ri)
		pollRun(t, client, ts.URL+"/v1/tenants/"+tenant+"/runs/"+ri.ID)
	}
	call(t, client, "GET", ts.URL+"/v1/tenants/ghost", "", "") // a 4xx series

	code, body := raw(t, client, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	page := string(body)
	for _, want := range []string{
		`cliffguard_http_request_latency_seconds_count{route="GET /v1/healthz",status="2xx"}`,
		`cliffguard_http_request_latency_seconds_count{route="GET /v1/tenants/{tenant}",status="4xx"}`,
		`cliffguard_http_requests_total{route="POST /v1/tenants/{tenant}/runs",status="2xx"}`,
		`cliffguard_tenant_runs_total{tenant="metered"} 1`,
		`cliffguard_tenant_queue_wait_seconds_count{tenant="metered"} 1`,
		`cliffguard_tenant_run_duration_seconds_count{tenant="metered"} 1`,
		`cliffguard_shared_unitcost_tenant_misses_total{tenant="metered"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
	_, senv := call(t, client, "GET", ts.URL+"/v1/statez", "", "")
	var st StateInfo
	reencode(t, senv.Data, &st)
	if st.SharedCache.Hits == 0 {
		t.Errorf("statez shared_cache = %+v: the second tenant's run hit nothing", st.SharedCache)
	}
	scraped := map[string]string{}
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "cliffguard_costcache_shard_") {
			t.Errorf("per-stripe family still exported: %s", line)
		}
		if name, value, ok := strings.Cut(line, `{cache="shared-unitcost"} `); ok {
			scraped[name] = value
		}
	}
	for name, want := range map[string]string{
		"cliffguard_costcache_hits_total":   fmt.Sprint(st.SharedCache.Hits),
		"cliffguard_costcache_misses_total": fmt.Sprint(st.SharedCache.Misses),
		"cliffguard_costcache_entries":      fmt.Sprint(st.SharedCache.Entries),
	} {
		if got := scraped[name]; got != want {
			t.Errorf(`%s{cache="shared-unitcost"} = %q, statez says %s`, name, got, want)
		}
	}
	vcode, vars := raw(t, client, ts.URL+"/vars")
	if vcode != http.StatusOK {
		t.Fatalf("vars: %d", vcode)
	}
	var dump map[string]any
	if err := json.Unmarshal(vars, &dump); err != nil {
		t.Fatalf("vars is not JSON: %v", err)
	}
	for _, key := range []string{"http_request_latency", "tenant_runs", "tenant_queue_wait"} {
		if _, ok := dump[key]; !ok {
			t.Errorf("vars missing %q: %v", key, dump)
		}
	}
}
