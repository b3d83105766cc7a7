package serve

import (
	"bytes"
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
	"cliffguard/internal/ingest"
	"cliffguard/internal/wlgen"
)

// observeSeeds renders three-statement slices of R1's first month (with and
// without the timestamp prefix, one slice repeating statements) plus
// malformed and empty bodies, as the seed corpus of FuzzOnlineObserve. The
// seeds stay short because the fuzzer minimizes every new interesting input
// by re-running the handler.
func observeSeeds(f *testing.F) []string {
	cfg := wlgen.R1Config(datagen.Warehouse(1), 1)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	cfg.QueriesPerWeek = 20
	set, err := cfg.Generate()
	if err != nil {
		f.Fatal(err)
	}
	items := set.Months[0].Items
	var stamped, bare, repeated strings.Builder
	for i, it := range items[:min(len(items), 3)] {
		fmt.Fprintf(&stamped, "%s\t%s\n", it.Q.Timestamp.Format(time.RFC3339), it.Q.SQL)
		fmt.Fprintf(&bare, "%s;\n", it.Q.SQL)
		if i < 2 {
			fmt.Fprintf(&repeated, "%s\n%s\n", it.Q.SQL, it.Q.SQL)
		}
	}
	first := items[0].Q.SQL
	return []string{
		stamped.String(),
		bare.String(),
		repeated.String(),
		first + "\nSELECT FROM WHERE\n-- a comment\n\n" + first + "\n",
		"SELECT nope FROM missing_table\n",
		"not sql at all\n;;;\n",
		"2014-01-01T00:00:00Z\t" + first + "\nbad-stamp\t" + first + "\n",
		"",
		first,
	}
}

// FuzzOnlineObserve posts arbitrary bodies to the online observe stream of a
// tenant whose controller has auto-redesign off. The handler must never
// panic and must answer 200 or a 400 error envelope. On 200, every
// statement attempt is reported as observed or skipped, and the tenant's
// query IDs advance by exactly the attempts; on 400 they do not advance.
func FuzzOnlineObserve(f *testing.F) {
	for _, body := range observeSeeds(f) {
		f.Add([]byte(body))
	}
	srv := NewServer(Config{Workers: 1})
	f.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			f.Error(err)
		}
	})
	tn, err := srv.CreateTenant("fuzz", engine.Spec{Kind: engine.KindVertica}, 0)
	if err != nil {
		f.Fatal(err)
	}
	st, err := srv.buildOnline(tn, OnlineSpec{RunRequest: RunRequest{Gamma: 0.002}, Buckets: 2, BucketSize: 16})
	if err != nil {
		f.Fatal(err)
	}
	tn.mu.Lock()
	tn.online = st
	tn.mu.Unlock()
	h := srv.Handler()
	nextID := func() int64 {
		tn.mu.Lock()
		defer tn.mu.Unlock()
		return tn.nextID
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := nextID()
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/fuzz/online/observe", bytes.NewReader(body))
		req.Header.Set("Content-Type", "text/plain")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var env struct {
			Data  json.RawMessage `json:"data"`
			Error *ErrorInfo      `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%q: %d response is no envelope: %v", body, rec.Code, err)
		}
		after := nextID()
		if rec.Code != http.StatusOK {
			if rec.Code != http.StatusBadRequest || env.Error == nil || env.Error.Code != "bad_request" {
				t.Fatalf("%q: rejected with %d %+v, want 400 bad_request", body, rec.Code, env.Error)
			}
			if after != before {
				t.Fatalf("%q: rejected, yet query IDs advanced %d -> %d", body, before, after)
			}
			return
		}
		var info ObserveInfo
		if err := json.Unmarshal(env.Data, &info); err != nil {
			t.Fatal(err)
		}
		_, ist, err := ingest.Reader(tn.eng.Schema(), bytes.NewReader(body), ingest.Options{NoFold: true})
		if err != nil {
			t.Fatalf("%q: accepted, yet it does not ingest: %v", body, err)
		}
		if got := info.Observed + info.Skipped; got != ist.Attempts() {
			t.Fatalf("%q: observed %d + skipped %d = %d, want %d statement attempts",
				body, info.Observed, info.Skipped, got, ist.Attempts())
		}
		if info.RedesignStarted {
			t.Fatalf("%q: auto-redesign is off, yet a re-design started", body)
		}
		if got := after - before; got != int64(ist.Attempts()) {
			t.Fatalf("%q: query IDs advanced by %d, want %d attempts", body, got, ist.Attempts())
		}
	})
}
