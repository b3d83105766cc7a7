package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cliffguard/internal/engine"
)

// runRequestCases pin how a /v1 run request decodes: "shards" is the
// deprecated alias of "parallelism", used only when parallelism is unset.
var runRequestCases = []struct {
	name        string
	body        string
	parallelism int  // Options().Parallelism
	bad         bool // rejected with 400 bad_request
}{
	{"neither", `{"gamma":0.002}`, 0, false},
	{"parallelism", `{"gamma":0.002,"parallelism":3}`, 3, false},
	{"shards alias", `{"gamma":0.002,"shards":4}`, 4, false},
	{"parallelism wins", `{"gamma":0.002,"parallelism":2,"shards":4}`, 2, false},
	{"zero shards", `{"gamma":0.002,"shards":0}`, 0, false},
	{"negative parallelism kept", `{"gamma":0.002,"parallelism":-1,"shards":4}`, -1, false},
	{"negative shards", `{"gamma":0.002,"shards":-1}`, 0, true},
	{"negative shards with parallelism", `{"gamma":0.002,"parallelism":2,"shards":-3}`, 0, true},
	{"docs example", `{"gamma":0.002,"samples":20,"iterations":5,"seed":7,"parallelism":0,"shards":0,` +
		`"top_fraction":0.2,"metric":"euclidean","designers":["advisor","autoadmin","ilp"],"member_timeout":"30s"}`, 0, false},
}

func TestRunRequestShardsAlias(t *testing.T) {
	for _, tc := range runRequestCases {
		t.Run(tc.name, func(t *testing.T) {
			var req RunRequest
			if err := decodeJSON(strings.NewReader(tc.body), &req); err != nil {
				t.Fatalf("decode: %v", err)
			}
			err := req.validate()
			if tc.bad {
				if err == nil {
					t.Fatal("validate accepted the request, want a rejection")
				}
				return
			}
			if err != nil {
				t.Fatalf("validate: %v", err)
			}
			if got := req.Options().Parallelism; got != tc.parallelism {
				t.Fatalf("Options().Parallelism = %d, want %d", got, tc.parallelism)
			}
		})
	}
}

// TestNegativeShardsRejectedOverHTTP: the wire rejection surfaces as a 400
// bad_request on run submission.
func TestNegativeShardsRejectedOverHTTP(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"acme","engine":{"kind":"rowstore"}}`); code != http.StatusCreated {
		t.Fatalf("create tenant: %d %+v", code, env.Error)
	}
	code, env := call(t, client, "POST", ts.URL+"/v1/tenants/acme/runs", "application/json",
		`{"gamma":0.002,"shards":-1}`)
	if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != "bad_request" {
		t.Fatalf("negative shards: %d %+v, want 400 bad_request", code, env.Error)
	}
}

// FuzzRunRequest feeds arbitrary bytes through the run-request decoder: it
// must never panic, a request validate() accepts must lower to options
// core accepts, and the shards alias applies only when parallelism is unset.
func FuzzRunRequest(f *testing.F) {
	for _, tc := range runRequestCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if err := decodeJSON(strings.NewReader(string(body)), &req); err != nil {
			return
		}
		verr := req.validate()
		opts := req.Options()
		if verr != nil {
			return
		}
		if err := opts.Validate(); err != nil {
			t.Fatalf("validate accepted %q but Options().Validate() = %v", body, err)
		}
		want := req.Parallelism
		if want == 0 && req.Shards > 0 {
			want = req.Shards
		}
		if opts.Parallelism != want {
			t.Fatalf("%q: Options().Parallelism = %d, want %d", body, opts.Parallelism, want)
		}
	})
}

// FuzzOnlineSpec feeds arbitrary bytes through the online-spec decoder and
// buildOnline against a test tenant: it must never panic, a rejected spec is
// a 400 bad_request, and an accepted spec lowers to options core accepts.
func FuzzOnlineSpec(f *testing.F) {
	for _, body := range []string{
		`{"gamma":0.002}`,
		`{"gamma":0.0008,"samples":8,"iterations":2,"seed":7,"parallelism":1,"buckets":2,"bucket_size":16,"drift_fraction":0.25}`,
		`{"gamma":0.002,"metric":"separate","designers":["advisor","autoadmin","ilp"],"check_every":3,` +
			`"disable_seed":true,"disable_warm_start":true,"auto_redesign":true}`,
		`{"gamma":0}`,
		`{"gamma":-1,"samples":-3,"buckets":-2}`,
		`{"gamma":0.002,"metric":"bogus"}`,
		`{"gamma":0.002,"designers":["nope"]}`,
		`{"gamma":1e308,"parallelism":-5,"drift_fraction":-1}`,
	} {
		f.Add([]byte(body))
	}
	srv := NewServer(Config{Workers: 1})
	f.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			f.Error(err)
		}
	})
	tn, err := srv.CreateTenant("fuzz", engine.Spec{Kind: engine.KindRowStore}, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec OnlineSpec
		if err := decodeJSON(strings.NewReader(string(body)), &spec); err != nil {
			return
		}
		st, err := srv.buildOnline(tn, spec)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
				t.Fatalf("%q: buildOnline rejected with %v, want a 400 bad_request", body, err)
			}
			return
		}
		if err := spec.options(nil).Validate(); err != nil {
			t.Fatalf("buildOnline accepted %q but its options fail Validate: %v", body, err)
		}
		if info := onlineInfo(st); !info.Enabled || info.Gamma <= 0 {
			t.Fatalf("%q: accepted spec renders as %+v", body, info)
		}
	})
}

// FuzzTenantSpec posts arbitrary bodies to POST /v1/tenants: the handler
// must never panic, a rejection is a 400 bad_request, and an accepted spec
// reports back the budget_mib it was given (2560 when omitted or zero).
func FuzzTenantSpec(f *testing.F) {
	for _, body := range []string{
		`{"id":"acme","engine":{"kind":"rowstore"}}`,
		`{"id":"acme","engine":{"kind":"vertica","scale":2},"budget_mib":512}`,
		`{"id":"acme","engine":{"kind":"rowstore","scale":1152921504606846976}}`,
		`{"id":"acme","engine":{"kind":"approx"},"budget_mib":17592186044416}`,
		`{"id":"acme","engine":{"kind":"rowstore"},"budget_mib":8796093022213}`,
		`{"id":"acme","engine":{"kind":"aqe","scale":-3},"budget_mib":-1}`,
		`{"id":"bad id","engine":{"kind":"nope"}}`,
	} {
		f.Add([]byte(body))
	}
	srv := NewServer(Config{Workers: 1})
	f.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			f.Error(err)
		}
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var env struct {
			Data  json.RawMessage `json:"data"`
			Error *ErrorInfo      `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%q: %d response is no envelope: %v", body, rec.Code, err)
		}
		if rec.Code != http.StatusCreated {
			if rec.Code != http.StatusBadRequest || env.Error == nil || env.Error.Code != "bad_request" {
				t.Fatalf("%q: rejected with %d %+v, want 400 bad_request", body, rec.Code, env.Error)
			}
			return
		}
		var spec TenantSpec
		if err := decodeJSON(bytes.NewReader(body), &spec); err != nil {
			t.Fatalf("%q: accepted, yet it does not decode: %v", body, err)
		}
		var info TenantInfo
		if err := json.Unmarshal(env.Data, &info); err != nil {
			t.Fatal(err)
		}
		want := spec.BudgetMiB
		if want == 0 {
			want = DefaultBudgetBytes >> 20
		}
		if info.BudgetMiB != want {
			t.Fatalf("%q: accepted with budget_mib %d, want %d", body, info.BudgetMiB, want)
		}
		if err := srv.DeleteTenant(info.ID); err != nil {
			t.Fatal(err)
		}
	})
}
