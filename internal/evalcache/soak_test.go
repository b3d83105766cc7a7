package evalcache_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/engine"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/serve"
	"cliffguard/internal/wlgen"
)

// soakJob is one distinct served run: its engine, budget, workload and seed.
type soakJob struct {
	kind      string
	budgetMiB int64
	sql       string
	seed      int64
}

func (j soakJob) request() serve.RunRequest {
	return serve.RunRequest{Gamma: 0.0008, Samples: 2, Iterations: 1, Seed: j.seed, Parallelism: 1}
}

// soakSQL renders a small S1 log (two months, a few queries a week).
func soakSQL(t *testing.T, seed int64) string {
	t.Helper()
	cfg := wlgen.S1Config(datagen.Warehouse(1), seed)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	cfg.QueriesPerWeek = 4
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

// soakRef is a job's result through the library path with no shared store:
// the design's structure keys and the trace's worst-case costs.
type soakRef struct {
	keys  []string
	worst []float64
}

func libraryRun(t *testing.T, j soakJob) soakRef {
	t.Helper()
	w, _, err := serve.ParseWorkload(datagen.Warehouse(1), strings.NewReader(j.sql), 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := serve.StartRun(context.Background(), serve.RunSpec{
		Engine:      engine.Spec{Kind: j.kind},
		BudgetBytes: j.budgetMiB << 20,
		Options:     j.request().Options(),
		Workload:    w,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, traces, err := h.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ref soakRef
	for _, s := range d.Structures {
		ref.keys = append(ref.keys, s.Key())
	}
	for _, tr := range traces {
		ref.worst = append(ref.worst, tr.WorstCase)
	}
	return ref
}

// soakClient drives a server's /v1 handler in process.
type soakClient struct {
	t *testing.T
	h http.Handler
}

func (c soakClient) do(method, path, contentType, body string, out any) {
	c.t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	if rec.Code >= 300 {
		c.t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	if out != nil {
		env := struct{ Data any }{Data: out}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			c.t.Fatalf("%s %s: %v", method, path, err)
		}
	}
}

// TestSoakServedRunsStayUnderCap drives 2000 runs over rotating tenants,
// engines, budgets and workloads through one server whose shared store is
// capped far below what the runs ask for. After every batch the resident
// entries are within the cap, and every served design and trace equals the
// library's with no shared store: eviction changes hit rates, never a value.
func TestSoakServedRunsStayUnderCap(t *testing.T) {
	const (
		entryCap = 400
		runs     = 2000
		batch    = 8 // tenants alive at once, one run each per batch
	)
	defer evalcache.SetEntryCap(entryCap)()

	var jobs []soakJob
	for _, sqlSeed := range []int64{5, 6} {
		sql := soakSQL(t, sqlSeed)
		for _, kind := range []string{engine.KindRowStore, engine.KindVertica} {
			for _, budget := range []int64{64, 2560} {
				for _, seed := range []int64{7, 8} {
					jobs = append(jobs, soakJob{kind: kind, budgetMiB: budget, sql: sql, seed: seed})
				}
			}
		}
	}
	refs := make([]soakRef, len(jobs))
	for i, j := range jobs {
		refs[i] = libraryRun(t, j)
	}

	srv := serve.NewServer(serve.Config{Workers: 2})
	c := soakClient{t: t, h: srv.Handler()}
	// shrank records that resident entries fell between two batches, which
	// only eviction does.
	var shrank bool
	last := 0
	for first := 0; first < runs; first += batch {
		type pending struct {
			job  int
			path string
		}
		var ps []pending
		for k := first; k < first+batch; k++ {
			// Consecutive batches shift the job assignment, so a tenant ID
			// sees a different job (and engine) each time it comes back.
			ji := (k*5 + k/len(jobs)) % len(jobs)
			j := jobs[ji]
			id := fmt.Sprintf("soak-%d", k%batch)
			c.do("POST", "/v1/tenants", "application/json",
				fmt.Sprintf(`{"id":%q,"engine":{"kind":%q},"budget_mib":%d}`, id, j.kind, j.budgetMiB), nil)
			c.do("POST", "/v1/tenants/"+id+"/workload", "text/plain", j.sql, nil)
			body, _ := json.Marshal(j.request())
			var ri serve.RunInfo
			c.do("POST", "/v1/tenants/"+id+"/runs", "application/json", string(body), &ri)
			ps = append(ps, pending{job: ji, path: "/v1/tenants/" + id + "/runs/" + ri.ID})
		}
		for _, p := range ps {
			var ri serve.RunInfo
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
				c.do("GET", p.path, "", "", &ri)
				if ri.Status == "done" || ri.Status == "failed" || ri.Status == "cancelled" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: still %s after a minute", p.path, ri.Status)
				}
			}
			if ri.Status != "done" {
				t.Fatalf("%s: %s %s", p.path, ri.Status, ri.Error)
			}
			var d serve.DesignInfo
			var tr serve.TraceInfo
			c.do("GET", p.path+"/design", "", "", &d)
			c.do("GET", p.path+"/trace", "", "", &tr)
			ref := refs[p.job]
			if len(d.Structures) != len(ref.keys) || len(tr.Trace) != len(ref.worst) {
				t.Fatalf("%s (job %d): %d structures, %d trace points; library %d, %d",
					p.path, p.job, len(d.Structures), len(tr.Trace), len(ref.keys), len(ref.worst))
			}
			for i, s := range d.Structures {
				if s.Key != ref.keys[i] {
					t.Fatalf("%s (job %d): structure %d is %s, library %s", p.path, p.job, i, s.Key, ref.keys[i])
				}
			}
			for i, tp := range tr.Trace {
				if tp.WorstCase != ref.worst[i] {
					t.Fatalf("%s (job %d): iteration %d worst case %v, library %v", p.path, p.job, i, tp.WorstCase, ref.worst[i])
				}
			}
		}
		var st serve.StateInfo
		c.do("GET", "/v1/statez", "", "", &st)
		if st.SharedCache.Entries > entryCap {
			t.Fatalf("after %d runs: %d resident shared entries, cap %d", first+batch, st.SharedCache.Entries, entryCap)
		}
		shrank = shrank || st.SharedCache.Entries < last
		last = st.SharedCache.Entries
		for k := 0; k < batch; k++ {
			c.do("DELETE", fmt.Sprintf("/v1/tenants/soak-%d", k), "", "", nil)
		}
	}
	var st serve.StateInfo
	c.do("GET", "/v1/statez", "", "", &st)
	if !shrank || st.SharedCache.Hits == 0 {
		t.Fatalf("shared store: %d hits, %d misses, %d entries; the soak must both hit and evict",
			st.SharedCache.Hits, st.SharedCache.Misses, st.SharedCache.Entries)
	}
}
