package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/engine"
)

// TestFinishedRunsRetention: a tenant keeps its newest maxFinishedRuns
// finished runs. Older ones answer 404, and a run still in flight is kept
// however many runs finish after it.
func TestFinishedRunsRetention(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	ten, err := srv.CreateTenant("keeper", engine.Spec{Kind: engine.KindRowStore}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ten.Ingest(strings.NewReader(testSQL(t))); err != nil {
		t.Fatal(err)
	}
	// The long run holds one worker while the quick runs pass on the other.
	long, err := srv.Submit(ten, RunRequest{Gamma: 0.0008, Samples: 40, Iterations: 1 << 30, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 3
	var quick []*run
	for i := 0; i < maxFinishedRuns+extra; i++ {
		r, err := srv.Submit(ten, RunRequest{Gamma: 0.0008, Samples: 2, Iterations: 1, Seed: int64(i), Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitRun(t, r)
		quick = append(quick, r)
	}
	get := func(id string) int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tenants/keeper/runs/"+id, nil))
		return rec.Code
	}
	// A run prunes its tenant just after its handle reports done.
	for deadline := time.Now().Add(time.Minute); len(ten.runIDs()) > maxFinishedRuns+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("tenant still lists %d runs", len(ten.runIDs()))
		}
	}
	if st := long.status(); st.Terminal() {
		t.Fatalf("test premise: the long run already ended (%s)", st)
	}
	if code := get(long.id); code != http.StatusOK {
		t.Fatalf("in-flight run %s: GET %d, want 200", long.id, code)
	}
	for i, r := range quick {
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound
		}
		if code := get(r.id); code != want {
			t.Fatalf("quick run %d (%s): GET %d, want %d", i, r.id, code, want)
		}
	}
	if n := len(ten.runIDs()); n != maxFinishedRuns+1 {
		t.Fatalf("tenant lists %d runs, want %d finished + 1 in flight", n, maxFinishedRuns)
	}

	// Once the long run ends it is the oldest finished run, so it goes.
	long.cancel()
	waitRun(t, long)
	srv.runWG.Wait()
	if code := get(long.id); code != http.StatusNotFound {
		t.Fatalf("ended long run %s: GET %d, want 404", long.id, code)
	}
	if ids := ten.runIDs(); len(ids) != maxFinishedRuns || ids[0] != quick[extra].id {
		t.Fatalf("tenant lists %d runs from %s, want %d from %s", len(ids), ids[0], maxFinishedRuns, quick[extra].id)
	}
}
