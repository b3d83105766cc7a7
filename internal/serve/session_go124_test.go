//go:build go1.24

package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
	"weak"

	"cliffguard/internal/designer"
	"cliffguard/internal/engine"
)

// probedEngine hands out a nominal designer whose sessions it tracks.
type probedEngine struct {
	engine.Engine
	opened []weak.Pointer[probedSession]
}

type probedNominal struct {
	designer.SessionDesigner
	e *probedEngine
}

type probedSession struct{ designer.Designer }

func (e *probedEngine) NominalDesigner(budgetBytes int64) designer.Designer {
	return probedNominal{e.Engine.NominalDesigner(budgetBytes).(designer.SessionDesigner), e}
}

func (n probedNominal) Session() designer.Designer {
	s := &probedSession{n.SessionDesigner.Session()}
	n.e.opened = append(n.e.opened, weak.Make(s))
	return s
}

// TestServedRunDropsSession: a run served over /v1 (through the server's
// cross-tenant memo) opens one designer session, and once the run is done
// its session is collected while the tenant still lists the run.
func TestServedRunDropsSession(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"probed","engine":{"kind":"vertica"}}`); code != http.StatusCreated {
		t.Fatalf("create tenant: %d %+v", code, env.Error)
	}
	srv.mu.Lock()
	tn := srv.tenants["probed"]
	probe := &probedEngine{Engine: tn.eng}
	tn.eng = probe
	srv.mu.Unlock()
	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants/probed/workload", "text/plain", testSQL(t)); code != http.StatusOK {
		t.Fatalf("post workload: %d %+v", code, env.Error)
	}
	code, env := call(t, client, "POST", ts.URL+"/v1/tenants/probed/runs", "application/json", testRunBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit run: %d %+v", code, env.Error)
	}
	var ri RunInfo
	reencode(t, env.Data, &ri)
	if info := pollRun(t, client, ts.URL+"/v1/tenants/probed/runs/"+ri.ID); info.Status != string(StatusDone) {
		t.Fatalf("run ended %s", info.Status)
	}
	if len(probe.opened) != 1 {
		t.Fatalf("the run opened %d sessions, want 1", len(probe.opened))
	}
	for deadline := time.Now().Add(5 * time.Second); probe.opened[0].Value() != nil; {
		runtime.GC()
		if time.Now().After(deadline) {
			t.Fatal("the served run's designer session is still reachable after the run finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _ := call(t, client, "GET", ts.URL+"/v1/tenants/probed/runs/"+ri.ID, "", ""); code != http.StatusOK {
		t.Fatalf("the tenant no longer lists the run: %d", code)
	}
}
