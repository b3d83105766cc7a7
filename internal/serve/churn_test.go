package serve

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cliffguard/internal/engine"
)

// TestTenantChurnBoundsTelemetry creates, runs and deletes 200 tenants
// through one Server, next to one tenant that stays. Every tenth tenant is
// deleted while its run is still queued or running, so the run ends after
// its tenant is gone. Afterwards the per-tenant metric families hold only
// the live tenant, and the last churned run's span stream is no larger than
// the first's plus a small constant: its metrics record lists its own
// tenant's series, not every tenant the daemon has seen.
func TestTenantChurnBoundsTelemetry(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	sql := testSQL(t)
	req := RunRequest{Gamma: 0.0008, Samples: 2, Iterations: 1, Seed: 7, Parallelism: 1}
	spec := engine.Spec{Kind: engine.KindRowStore}
	runTenant := func(id string, deleteEarly bool) []byte {
		t.Helper()
		ten, err := srv.CreateTenant(id, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ten.Ingest(strings.NewReader(sql)); err != nil {
			t.Fatal(err)
		}
		r, err := srv.Submit(ten, req)
		if err != nil {
			t.Fatal(err)
		}
		if deleteEarly {
			if err := srv.DeleteTenant(id); err != nil {
				t.Fatal(err)
			}
		}
		srv.runWG.Wait()
		if deleteEarly {
			return nil
		}
		h := r.getHandle()
		if h == nil || h.Status() != StatusDone {
			t.Fatalf("%s: run status %s, err %v", id, r.status(), r.err())
		}
		return h.SpansJSONL()
	}

	runTenant("keeper", false)
	const churn = 200
	var first, last []byte
	for i := 0; i < churn; i++ {
		id := fmt.Sprintf("churn-%03d", i)
		early := i%10 == 5
		spans := runTenant(id, early)
		if !early {
			if err := srv.DeleteTenant(id); err != nil {
				t.Fatal(err)
			}
		}
		if first == nil {
			first = spans
		}
		if spans != nil {
			last = spans
		}
	}

	m := srv.Metrics()
	if got := m.TenantRuns.Labels(); !slices.Equal(got, []string{"keeper"}) {
		t.Errorf("TenantRuns labels = %v, want [keeper]", got)
	}
	for name, labels := range map[string][]string{
		"TenantRunDuration":  m.TenantRunDuration.Labels(),
		"TenantQueueWait":    m.TenantQueueWait.Labels(),
		"SharedHitsByTenant": m.SharedHitsByTenant.Labels(),
		"SharedMissByTenant": m.SharedMissByTenant.Labels(),
	} {
		if slices.ContainsFunc(labels, func(l string) bool { return l != "keeper" }) {
			t.Errorf("%s labels = %v, want only the live tenant", name, labels)
		}
	}
	// Process-wide counters and latency statistics gain digits as the
	// daemon ages; one more tenant's series would add about 0.2 KB, so
	// carrying every churned tenant would add about 40 KB.
	const slack = 1 << 10
	if len(last) > len(first)+slack {
		t.Errorf("span stream grew with churn: first run %d bytes, last %d", len(first), len(last))
	}
	if !strings.Contains(string(last), `"tenant_runs":{"churn-199":1}`) {
		t.Errorf("last run's metrics record lacks its own tenant's series:\n%s", last)
	}
}
