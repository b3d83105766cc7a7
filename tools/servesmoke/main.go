// Command servesmoke is the CI smoke test of the cliffguardd serving layer:
// it builds the real binary, boots it on a random port, and drives the /v1
// API end to end —
//
//  1. create a rowstore tenant, POST a wlgen-derived workload, submit a run,
//     poll to completion, and fetch the design, trace, and report;
//  2. golden-compare the served design and trace against the same RunSpec
//     executed through the in-process library path at the same parallelism
//     (the bit-identical determinism contract of the serving layer);
//  3. create a second tenant with the identical workload, run it, and require
//     the shared unit-cost memo to report cross-tenant hits via /v1/statez;
//  4. scrape /metrics and require the service telemetry families (per-route
//     request latency, per-tenant runs and queue wait, the shared unit-cost
//     store's hits) plus a populated /v1/debug/requestz flight ring; every
//     /v1 response along the way must have carried an X-Request-Id, and an
//     inbound ID must echo back;
//  5. decode /vars into an obs.MetricsSnapshot, summarize it as
//     `cliffreport serve-summary` does, and require each tenant's run count
//     and the 2xx run-submission count to equal the runs submitted;
//  6. delete the second tenant, scrape /metrics again, and require that none
//     of its tenant-labeled series remain;
//  7. submit a long run, send SIGTERM, and require a clean drain (exit 0)
//     within the drain timeout.
//
// Run via `make serve-smoke`. Exit status 0 means all seven passed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/report"
	"cliffguard/internal/serve"
	"cliffguard/internal/wlgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: ok")
}

var runBody = map[string]any{
	"gamma": 0.0008, "samples": 8, "iterations": 3, "seed": 7, "parallelism": 2,
	"metric": "separate", "designers": []string{"advisor", "autoadmin"},
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "cliffguardd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/cliffguardd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building cliffguardd: %w", err)
	}

	sql, err := workloadSQL()
	if err != nil {
		return err
	}

	// Boot on a random port; the startup line carries the bound address.
	eventsDir := filepath.Join(tmp, "events")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-events-dir", eventsDir, "-drain-timeout", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	defer cmd.Process.Kill()

	base, err := parseListenLine(stdout)
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// 1. Round trip on tenant A.
	if _, err := post(base+"/v1/tenants", "application/json",
		`{"id":"smoke-a","engine":{"kind":"rowsim"}}`); err != nil {
		return fmt.Errorf("create tenant: %w", err)
	}
	if _, err := post(base+"/v1/tenants/smoke-a/workload", "text/plain", sql); err != nil {
		return fmt.Errorf("post workload: %w", err)
	}
	body, _ := json.Marshal(runBody)
	sub, err := post(base+"/v1/tenants/smoke-a/runs", "application/json", string(body))
	if err != nil {
		return fmt.Errorf("submit run: %w", err)
	}
	runID, _ := sub["id"].(string)
	if runID == "" {
		return fmt.Errorf("submit returned no run id: %v", sub)
	}
	runURL := base + "/v1/tenants/smoke-a/runs/" + runID
	if err := pollDone(runURL); err != nil {
		return err
	}
	design, err := get(runURL + "/design")
	if err != nil {
		return fmt.Errorf("fetch design: %w", err)
	}
	trace, err := get(runURL + "/trace")
	if err != nil {
		return fmt.Errorf("fetch trace: %w", err)
	}
	report, err := get(runURL + "/report")
	if err != nil {
		return fmt.Errorf("fetch report: %w", err)
	}
	if report["final_worst_case"] == nil {
		return fmt.Errorf("report missing final_worst_case: %v", report)
	}

	// 2. Golden-compare against the library path at the same parallelism.
	if err := compareWithLibrary(sql, design, trace); err != nil {
		return err
	}

	// 3. Cross-tenant sharing: identical workload on tenant B must hit the
	// shared unit-cost memo.
	before, err := sharedHits(base)
	if err != nil {
		return err
	}
	if _, err := post(base+"/v1/tenants", "application/json",
		`{"id":"smoke-b","engine":{"kind":"rowsim"}}`); err != nil {
		return fmt.Errorf("create tenant b: %w", err)
	}
	if _, err := post(base+"/v1/tenants/smoke-b/workload", "text/plain", sql); err != nil {
		return fmt.Errorf("post workload b: %w", err)
	}
	sub, err = post(base+"/v1/tenants/smoke-b/runs", "application/json", string(body))
	if err != nil {
		return fmt.Errorf("submit run b: %w", err)
	}
	runBID, _ := sub["id"].(string)
	if err := pollDone(base + "/v1/tenants/smoke-b/runs/" + runBID); err != nil {
		return err
	}
	after, err := sharedHits(base)
	if err != nil {
		return err
	}
	if after <= before {
		return fmt.Errorf("no cross-tenant shared-cache hits: %v -> %v", before, after)
	}
	fmt.Printf("servesmoke: cross-tenant shared hits %v -> %v\n", before, after)

	// 4. Service telemetry: metric families in a real scrape, request IDs on
	// every response, and a populated flight recorder.
	if err := checkTelemetry(base); err != nil {
		return err
	}

	// 5. The /vars snapshot counts exactly the runs submitted so far.
	if err := checkVars(base, map[string]uint64{"smoke-a": 1, "smoke-b": 1}); err != nil {
		return err
	}

	// 6. A deleted tenant's labeled series leave /metrics with it.
	if err := checkTenantDelete(base, "smoke-b"); err != nil {
		return err
	}

	// 7. SIGTERM during a long run drains cleanly (exit 0, events flushed).
	long, _ := json.Marshal(map[string]any{
		"gamma": 0.0008, "samples": 40, "iterations": 1000, "seed": 7,
	})
	if _, err := post(base+"/v1/tenants/smoke-a/runs", "application/json", string(long)); err != nil {
		return fmt.Errorf("submit long run: %w", err)
	}
	time.Sleep(200 * time.Millisecond) // let it enter the loop
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("cliffguardd did not drain cleanly: %w", err)
		}
	case <-time.After(45 * time.Second):
		return fmt.Errorf("cliffguardd did not exit within the drain window")
	}
	entries, err := os.ReadDir(eventsDir)
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("no event streams flushed to %s (err %v)", eventsDir, err)
	}
	fmt.Printf("servesmoke: drained with %d flushed event streams\n", len(entries))
	return nil
}

// workloadSQL renders the smoke workload in the cmd/wlgen line format.
func workloadSQL() (string, error) {
	cfg := wlgen.S1Config(datagen.Warehouse(1), 5)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	cfg.QueriesPerWeek = 6
	set, err := cfg.Generate()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, q := range set.Queries {
		fmt.Fprintf(&b, "%s\t%s\n", q.Timestamp.Format(time.RFC3339), q.SQL)
	}
	return b.String(), nil
}

// compareWithLibrary lowers runBody to a RunSpec as the server does, runs it
// in process, and requires the served design and trace to match it exactly.
func compareWithLibrary(sql string, design, trace map[string]any) error {
	w, _, err := serve.ParseWorkload(datagen.Warehouse(1), strings.NewReader(sql), 1)
	if err != nil {
		return err
	}
	var req serve.RunRequest
	raw, _ := json.Marshal(runBody)
	if err := json.Unmarshal(raw, &req); err != nil {
		return err
	}
	spec := req.Spec()
	spec.Engine, spec.Workload = engine.Spec{Kind: engine.KindRowStore}, w
	h, err := serve.StartRun(context.Background(), spec)
	if err != nil {
		return err
	}
	libDesign, libTraces, err := h.Await(context.Background())
	if err != nil {
		return err
	}

	served, _ := design["structures"].([]any)
	if len(served) != libDesign.Len() {
		return fmt.Errorf("design mismatch: served %d structures, library %d", len(served), libDesign.Len())
	}
	for i, st := range libDesign.Structures {
		got, _ := served[i].(map[string]any)
		if got["key"] != st.Key() || int64(asFloat(got["size_bytes"])) != st.SizeBytes() {
			return fmt.Errorf("design structure %d differs: served %v, library %s/%d",
				i, got, st.Key(), st.SizeBytes())
		}
	}
	servedTrace, _ := trace["trace"].([]any)
	if len(servedTrace) != len(libTraces) {
		return fmt.Errorf("trace mismatch: served %d points, library %d", len(servedTrace), len(libTraces))
	}
	for i, tr := range libTraces {
		got, _ := servedTrace[i].(map[string]any)
		if asFloat(got["worst_case"]) != tr.WorstCase || asFloat(got["candidate_cost"]) != tr.CandidateCost {
			return fmt.Errorf("trace point %d differs: served %v, library %+v", i, got, tr)
		}
	}
	fmt.Printf("servesmoke: served run matches library path (%d structures, %d trace points)\n",
		len(served), len(servedTrace))
	return nil
}

// checkTelemetry asserts the observability contract on the live daemon: the
// service metric families show up in a real /metrics scrape, an inbound
// X-Request-Id echoes back verbatim, and the flight recorder captured the
// traffic this smoke test generated.
func checkTelemetry(base string) error {
	req, err := http.NewRequest("GET", base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", "servesmoke-echo-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "servesmoke-echo-1" {
		return fmt.Errorf("inbound request ID not echoed: got %q", got)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	page, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		return err
	}
	for _, family := range []string{
		`cliffguard_http_request_latency_seconds_count{route="POST /v1/tenants/{tenant}/runs",status="2xx"}`,
		`cliffguard_http_requests_total{route="GET /v1/healthz",status="2xx"}`,
		`cliffguard_tenant_runs_total{tenant="smoke-a"}`,
		`cliffguard_tenant_queue_wait_seconds_count{tenant="smoke-a"}`,
		`cliffguard_tenant_run_duration_seconds_count{tenant="smoke-b"}`,
		`cliffguard_costcache_hits_total{cache="shared-unitcost"}`,
	} {
		if !strings.Contains(string(page), family) {
			return fmt.Errorf("/metrics scrape missing %q", family)
		}
	}

	dump, err := get(base + "/v1/debug/requestz")
	if err != nil {
		return err
	}
	reqs, _ := dump["requests"].([]any)
	if len(reqs) == 0 {
		return fmt.Errorf("flight recorder /v1/debug/requestz is empty: %v", dump)
	}
	for _, r := range reqs {
		rec, _ := r.(map[string]any)
		if id, _ := rec["request_id"].(string); id == "" {
			return fmt.Errorf("flight-recorded request without a request ID: %v", rec)
		}
	}
	fmt.Printf("servesmoke: telemetry ok (%d flight-recorded requests, service metric families present)\n", len(reqs))
	return nil
}

// checkVars decodes /vars into an obs.MetricsSnapshot and summarizes it the
// way `cliffreport serve-summary` does: every tenant's run count must equal
// runs[tenant], and the 2xx run-submission route must count them all.
func checkVars(base string, runs map[string]uint64) error {
	resp, err := http.Get(base + "/vars")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var vars obs.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return fmt.Errorf("/vars: %w", err)
	}
	sum, err := report.SummarizeServe(vars, nil, nil)
	if err != nil {
		return err
	}
	got := map[string]uint64{}
	for _, t := range sum.Tenants {
		got[t.Tenant] = t.Runs
	}
	if !reflect.DeepEqual(got, runs) {
		return fmt.Errorf("/vars tenant runs %v, want %v", got, runs)
	}
	var submitted, posted uint64
	for _, n := range runs {
		submitted += n
	}
	for _, r := range sum.Routes {
		if r.Route == "POST /v1/tenants/{tenant}/runs" && r.Status == "2xx" {
			posted = r.Count
		}
	}
	if posted != submitted {
		return fmt.Errorf("/vars counts %d 2xx run submissions, want %d", posted, submitted)
	}
	fmt.Printf("servesmoke: /vars summary ok (%d runs over %d tenants)\n", submitted, len(runs))
	return nil
}

// checkTenantDelete deletes the tenant and requires that a fresh /metrics
// scrape carries no series labeled with it.
func checkTenantDelete(base, tenant string) error {
	if _, err := do("DELETE", base+"/v1/tenants/"+tenant, "", ""); err != nil {
		return fmt.Errorf("delete tenant: %w", err)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	label := fmt.Sprintf("tenant=%q", tenant)
	for _, line := range strings.Split(string(page), "\n") {
		if strings.Contains(line, label) {
			return fmt.Errorf("/metrics still carries a deleted tenant's series: %s", line)
		}
	}
	fmt.Printf("servesmoke: deleted tenant %s left no labeled series\n", tenant)
	return nil
}

func asFloat(v any) float64 {
	f, _ := v.(float64)
	return f
}

// parseListenLine reads the daemon's startup line and returns the base URL.
func parseListenLine(r io.Reader) (string, error) {
	br := bufio.NewReader(r)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if strings.Contains(line, "listening at http://") {
			addr := strings.TrimPrefix(strings.Fields(line)[2], "http://")
			return "http://" + strings.TrimSuffix(addr, "/v1"), nil
		}
		if err != nil {
			return "", fmt.Errorf("cliffguardd exited before announcing its address: %v", err)
		}
	}
	return "", fmt.Errorf("no listen line within 30s")
}

func pollDone(runURL string) error {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		info, err := get(runURL)
		if err != nil {
			return err
		}
		switch info["status"] {
		case "done":
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("run %s: %v", info["status"], info["error"])
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("run did not finish within 2m")
}

func sharedHits(base string) (float64, error) {
	st, err := get(base + "/v1/statez")
	if err != nil {
		return 0, err
	}
	sc, _ := st["shared_cache"].(map[string]any)
	return asFloat(sc["hits"]), nil
}

// get/post speak the {"schema":1,...} envelope and return the data payload.
func get(url string) (map[string]any, error) { return do("GET", url, "", "") }

func post(url, contentType, body string) (map[string]any, error) {
	return do("POST", url, contentType, body)
}

func do(method, url, contentType, body string) (map[string]any, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		return nil, fmt.Errorf("%s %s: response has no X-Request-Id header", method, url)
	}
	var env struct {
		Schema int            `json:"schema"`
		Data   map[string]any `json:"data"`
		Error  *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("%s %s: bad envelope: %w", method, url, err)
	}
	if env.Schema != 1 {
		return nil, fmt.Errorf("%s %s: envelope schema %d", method, url, env.Schema)
	}
	if env.Error != nil {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, env.Error.Code, env.Error.Message)
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	return env.Data, nil
}
