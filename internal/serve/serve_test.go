package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/report"
	"cliffguard/internal/wlgen"
)

// testSQL renders a small deterministic SQL workload for the scale-1
// warehouse in the wlgen line format ("<RFC3339>\t<SQL>").
func testSQL(t *testing.T) string {
	t.Helper()
	cfg := wlgen.S1Config(datagen.Warehouse(1), 5)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	cfg.QueriesPerWeek = 6
	set, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, q := range set.Queries {
		fmt.Fprintf(&b, "%s\t%s\n", q.Timestamp.Format(time.RFC3339), q.SQL)
	}
	return b.String()
}

// call hits the test server and decodes the envelope.
func call(t *testing.T, client *http.Client, method, url, contentType string, body string) (int, envelope) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: decoding envelope: %v", method, url, err)
	}
	if env.Schema != WireSchemaVersion {
		t.Fatalf("%s %s: envelope schema = %d, want %d", method, url, env.Schema, WireSchemaVersion)
	}
	return resp.StatusCode, env
}

// raw fetches a non-envelope (stream) endpoint.
func raw(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// reencode round-trips an envelope's data payload into a typed DTO.
func reencode(t *testing.T, data any, into any) {
	t.Helper()
	raw, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatal(err)
	}
}

// pollRun polls until the run reaches a terminal state.
func pollRun(t *testing.T, client *http.Client, url string) RunInfo {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		_, env := call(t, client, "GET", url, "", "")
		var info RunInfo
		reencode(t, env.Data, &info)
		if RunStatus(info.Status).Terminal() {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s did not finish (status %s)", url, info.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var testRunBody = `{"gamma":0.0008,"samples":8,"iterations":3,"seed":7,"parallelism":2}`

// canonicalEvents sorts each consecutive run of NeighborEvaluated events
// with the same iteration and phase by neighbor index. That within-pass
// order is the one degree of freedom the obs determinism contract leaves
// open at parallelism > 1; everything else must match exactly.
func canonicalEvents(events []obs.Event) []obs.Event {
	out := append([]obs.Event(nil), events...)
	i := 0
	for i < len(out) {
		ne, ok := out[i].(obs.NeighborEvaluated)
		if !ok {
			i++
			continue
		}
		j := i + 1
		for j < len(out) {
			n2, ok := out[j].(obs.NeighborEvaluated)
			if !ok || n2.Iteration != ne.Iteration || n2.Phase != ne.Phase {
				break
			}
			j++
		}
		sort.Slice(out[i:j], func(a, b int) bool {
			return out[i+a].(obs.NeighborEvaluated).Index < out[i+b].(obs.NeighborEvaluated).Index
		})
		i = j
	}
	return out
}

// The acceptance criterion of the serving layer: a /v1 run on a rowsim
// tenant yields design, trace, events, and report identical to the same
// RunSpec executed through the library path at the same parallelism.
func TestServerRoundTripMatchesLibrary(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	sql := testSQL(t)

	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"acme","engine":{"kind":"rowstore"}}`); code != http.StatusCreated {
		t.Fatalf("create tenant: %d %+v", code, env.Error)
	}
	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants/acme/workload", "text/plain", sql); code != http.StatusOK {
		t.Fatalf("post workload: %d %+v", code, env.Error)
	} else {
		var wi WorkloadInfo
		reencode(t, env.Data, &wi)
		if wi.Queries == 0 {
			t.Fatal("no queries ingested")
		}
	}
	code, env := call(t, client, "POST", ts.URL+"/v1/tenants/acme/runs", "application/json", testRunBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit run: %d %+v", code, env.Error)
	}
	var ri RunInfo
	reencode(t, env.Data, &ri)
	runURL := ts.URL + "/v1/tenants/acme/runs/" + ri.ID

	final := pollRun(t, client, runURL)
	if final.Status != string(StatusDone) {
		t.Fatalf("run finished %s: %s", final.Status, final.Error)
	}
	_, denv := call(t, client, "GET", runURL+"/design", "", "")
	var httpDesign DesignInfo
	reencode(t, denv.Data, &httpDesign)
	_, tenv := call(t, client, "GET", runURL+"/trace", "", "")
	var httpTrace TraceInfo
	reencode(t, tenv.Data, &httpTrace)
	ecode, httpEvents := raw(t, client, runURL+"/events")
	if ecode != http.StatusOK {
		t.Fatalf("events: %d", ecode)
	}
	_, renv := call(t, client, "GET", runURL+"/report", "", "")
	var httpSum report.Summary
	reencode(t, renv.Data, &httpSum)
	reportJSON, _ := json.Marshal(&httpSum)

	// The same spec through the library path, same parallelism, fresh
	// engine, no shared memo.
	var req RunRequest
	if err := json.Unmarshal([]byte(testRunBody), &req); err != nil {
		t.Fatal(err)
	}
	w, _, err := ParseWorkload(datagen.Warehouse(1), strings.NewReader(sql), 1)
	if err != nil {
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
	libDesign, libTraces, err := h.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Designs: identical structure sets, bit for bit.
	if len(httpDesign.Structures) != libDesign.Len() {
		t.Fatalf("design size: http %d vs library %d", len(httpDesign.Structures), libDesign.Len())
	}
	for i, st := range libDesign.Structures {
		got := httpDesign.Structures[i]
		if got.Key != st.Key() || got.SizeBytes != st.SizeBytes() || got.Describe != st.Describe() {
			t.Fatalf("structure %d differs: %+v vs %s", i, got, st.Key())
		}
	}
	// Traces.
	if len(httpTrace.Trace) != len(libTraces) {
		t.Fatalf("trace length: http %d vs library %d", len(httpTrace.Trace), len(libTraces))
	}
	for i, tr := range libTraces {
		got := httpTrace.Trace[i]
		if got.Iteration != tr.Iteration || got.Alpha != tr.Alpha ||
			got.WorstCase != tr.WorstCase || got.CandidateCost != tr.CandidateCost ||
			got.Improved != tr.Improved {
			t.Fatalf("trace %d differs: %+v vs %+v", i, got, tr)
		}
	}
	// Event streams: identical up to the within-pass NeighborEvaluated order
	// (the only freedom the obs contract allows at parallelism > 1).
	decoded, err := obs.DecodeJSONL(bytes.NewReader(httpEvents))
	if err != nil {
		t.Fatalf("http event stream corrupt: %v", err)
	}
	httpEvts := make([]obs.Event, len(decoded))
	for i, de := range decoded {
		httpEvts[i] = de.Event
	}
	if a, b := canonicalEvents(httpEvts), canonicalEvents(h.Events()); !reflect.DeepEqual(a, b) {
		t.Fatalf("event streams differ: http %d events vs library %d events", len(a), len(b))
	}
	// Reports: identical JSON.
	libSum, err := h.Summary()
	if err != nil {
		t.Fatal(err)
	}
	libJSON, _ := json.Marshal(libSum)
	if !bytes.Equal(reportJSON, libJSON) {
		t.Fatalf("reports differ:\nhttp: %s\nlib:  %s", reportJSON, libJSON)
	}
}

// Two tenants with identical workloads must warm each other's runs through
// the shared unit-cost memo — and still produce identical designs.
func TestCrossTenantSharedCacheHits(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	sql := testSQL(t)

	designs := map[string]DesignInfo{}
	for _, tenantID := range []string{"alpha", "beta"} {
		call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
			fmt.Sprintf(`{"id":%q,"engine":{"kind":"rowstore"}}`, tenantID))
		call(t, client, "POST", ts.URL+"/v1/tenants/"+tenantID+"/workload", "text/plain", sql)
	}

	hitsBefore := srv.shared.Stats().Hits
	_, env := call(t, client, "POST", ts.URL+"/v1/tenants/alpha/runs", "application/json", testRunBody)
	var ri RunInfo
	reencode(t, env.Data, &ri)
	if got := pollRun(t, client, ts.URL+"/v1/tenants/alpha/runs/"+ri.ID); got.Status != string(StatusDone) {
		t.Fatalf("alpha run: %s %s", got.Status, got.Error)
	}
	_, denv := call(t, client, "GET", ts.URL+"/v1/tenants/alpha/runs/"+ri.ID+"/design", "", "")
	var d DesignInfo
	reencode(t, denv.Data, &d)
	designs["alpha"] = d
	hitsAfterFirst := srv.shared.Stats().Hits

	_, env = call(t, client, "POST", ts.URL+"/v1/tenants/beta/runs", "application/json", testRunBody)
	reencode(t, env.Data, &ri)
	if got := pollRun(t, client, ts.URL+"/v1/tenants/beta/runs/"+ri.ID); got.Status != string(StatusDone) {
		t.Fatalf("beta run: %s %s", got.Status, got.Error)
	}
	_, denv = call(t, client, "GET", ts.URL+"/v1/tenants/beta/runs/"+ri.ID+"/design", "", "")
	reencode(t, denv.Data, &d)
	designs["beta"] = d

	hitsAfterSecond := srv.shared.Stats().Hits
	if hitsAfterSecond <= hitsAfterFirst {
		t.Fatalf("second tenant's run produced no cross-tenant hits: %d -> %d (before: %d)",
			hitsAfterFirst, hitsAfterSecond, hitsBefore)
	}
	// Sharing must not perturb results: identical workload + options =>
	// identical designs.
	if a, b := designs["alpha"], designs["beta"]; len(a.Structures) != len(b.Structures) {
		t.Fatalf("tenant designs differ in size: %d vs %d", len(a.Structures), len(b.Structures))
	} else {
		for i := range a.Structures {
			if a.Structures[i] != b.Structures[i] {
				t.Fatalf("tenant designs differ at %d: %+v vs %+v", i, a.Structures[i], b.Structures[i])
			}
		}
	}
	// The /v1/statez surface reports the shared cache.
	_, senv := call(t, client, "GET", ts.URL+"/v1/statez", "", "")
	var st StateInfo
	reencode(t, senv.Data, &st)
	if st.SharedCache.Hits != hitsAfterSecond && st.SharedCache.Hits < hitsAfterSecond {
		t.Fatalf("statez shared hits = %d, want >= %d", st.SharedCache.Hits, hitsAfterSecond)
	}
	if st.SharedCache.Entries == 0 {
		t.Fatal("statez reports an empty shared cache after two runs")
	}
}

// Admission control is deterministic: with the worker pool held and the
// queue full, submissions are rejected "overloaded"; once draining, all
// submissions are rejected "draining".
func TestAdmissionOverloadAndDraining(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 1})
	eng, err := engine.Open(engine.Spec{Kind: engine.KindRowStore})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := srv.CreateTenant("solo", engine.Spec{Kind: engine.KindRowStore}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = eng
	sql := testSQL(t)
	if _, _, err := tn.Ingest(strings.NewReader(sql)); err != nil {
		t.Fatal(err)
	}

	// Occupy the only worker slot so submissions stay queued.
	srv.slots <- struct{}{}
	defer func() { <-srv.slots }()

	var req RunRequest
	if err := json.Unmarshal([]byte(testRunBody), &req); err != nil {
		t.Fatal(err)
	}
	r1, err := srv.Submit(tn, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.status(); st != StatusQueued {
		t.Fatalf("first run status = %s, want %s", st, StatusQueued)
	}
	if _, err := srv.Submit(tn, req); err != errOverloaded {
		t.Fatalf("second submit error = %v, want errOverloaded", err)
	}

	// Draining rejects everything, including previously-admissible work.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Submit(tn, req); err != errDraining {
		t.Fatalf("submit while draining = %v, want errDraining", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := r1.status(); st != StatusCancelled {
		t.Fatalf("queued run after drain = %s, want %s", st, StatusCancelled)
	}
}

// A drain must not lose any emitted events: the flushed EventsDir stream must
// contain exactly the events the in-memory recorder saw.
func TestDrainFlushesEventStreamsWithoutLoss(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Config{Workers: 1, EventsDir: dir})
	tn, err := srv.CreateTenant("drainee", engine.Spec{Kind: engine.KindRowStore}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Ingest(strings.NewReader(testSQL(t))); err != nil {
		t.Fatal(err)
	}
	// A long run: enough iterations that the drain lands mid-flight.
	r, err := srv.Submit(tn, RunRequest{Gamma: 0.0008, Samples: 40, Iterations: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is genuinely running and emitting.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if h := r.getHandle(); h != nil && len(h.Events()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started emitting")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := r.status(); st != StatusCancelled && st != StatusDone {
		t.Fatalf("run after drain = %s", st)
	}

	recorded := r.getHandle().Events()
	f, err := os.Open(filepath.Join(dir, "drainee-"+r.id+".events.jsonl"))
	if err != nil {
		t.Fatalf("events file missing after drain: %v", err)
	}
	defer f.Close()
	flushed, err := obs.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("flushed stream corrupt: %v", err)
	}
	if len(flushed) != len(recorded) {
		t.Fatalf("drain lost events: file has %d, recorder saw %d", len(flushed), len(recorded))
	}
	for i := range flushed {
		if flushed[i].Event.Kind() != recorded[i].Kind() {
			t.Fatalf("event %d differs: file %s, recorder %s", i, flushed[i].Event.Kind(), recorded[i].Kind())
		}
	}
}

// Per-tenant event streams are deterministic: the same workload and options
// render byte-identical JSONL at parallelism 1 regardless of which tenant ran
// them, and identical up to within-pass eval order at parallelism > 1.
func TestPerTenantEventStreamsDeterministic(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	sql := testSQL(t)
	run := func(tenantID string, parallelism int) ([]byte, []obs.Event) {
		t.Helper()
		tn, err := srv.CreateTenant(tenantID, engine.Spec{Kind: engine.KindRowStore}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tn.Ingest(strings.NewReader(sql)); err != nil {
			t.Fatal(err)
		}
		r, err := srv.Submit(tn, RunRequest{Gamma: 0.0008, Samples: 8, Iterations: 3, Seed: 7, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		waitRun(t, r)
		stream, err := r.getHandle().EventsJSONL()
		if err != nil {
			t.Fatal(err)
		}
		return stream, r.getHandle().Events()
	}

	s1, _ := run("t1", 1)
	s2, _ := run("t2", 1)
	if !bytes.Equal(s1, s2) {
		t.Fatalf("serial tenant streams differ: %d vs %d bytes", len(s1), len(s2))
	}
	_, e3 := run("t3", 2)
	_, e4 := run("t4", 2)
	if a, b := canonicalEvents(e3), canonicalEvents(e4); !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel tenant streams differ beyond within-pass order: %d vs %d events", len(a), len(b))
	}
}

// waitRun blocks until a submitted run reads terminal, which it does once
// its terminal transition is recorded.
func waitRun(t *testing.T, r *run) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !r.status().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("run %s never finished (status %s)", r.id, r.status())
		}
		time.Sleep(time.Millisecond)
	}
}
