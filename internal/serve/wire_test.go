package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cliffguard/internal/engine"
)

// runRequestCases pin how a /v1 run request decodes and validates; they
// also seed FuzzRunRequest.
var runRequestCases = []struct {
	name string
	body string
	bad  bool // rejected with 400 bad_request
}{
	{"neither", `{"gamma":0.002}`, false},
	{"parallelism", `{"gamma":0.002,"parallelism":3}`, false},
	{"negative parallelism kept", `{"gamma":0.002,"parallelism":-1}`, false},
	{"top fraction", `{"gamma":0.002,"top_fraction":0.5}`, false},
	{"top fraction past 1", `{"gamma":0.002,"top_fraction":1.5}`, true},
	{"bad member timeout", `{"gamma":0.002,"member_timeout":"x"}`, true},
	{"unknown designer", `{"gamma":0.002,"designers":["nope"]}`, true},
	{"zero gamma", `{"gamma":0}`, true},
	{"docs example", `{"gamma":0.002,"samples":20,"iterations":5,"seed":7,"parallelism":0,` +
		`"top_fraction":0.2,"metric":"euclidean","designers":["advisor","autoadmin","ilp"],"member_timeout":"30s"}`, false},
}

func TestRunRequestValidates(t *testing.T) {
	for _, tc := range runRequestCases {
		t.Run(tc.name, func(t *testing.T) {
			var req RunRequest
			if err := decodeJSON(strings.NewReader(tc.body), &req); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := req.validate(); (err != nil) != tc.bad {
				t.Fatalf("validate = %v, want rejected = %v", err, tc.bad)
			}
		})
	}
}

// TestRunRequestShardsAlias: "shards", the alias of "parallelism" that older
// clients sent, is retired. A request naming it is rejected at decode,
// whatever its value or the parallelism beside it; the old docs example sent
// "shards":0 and is rejected too.
func TestRunRequestShardsAlias(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		bad        bool
	}{
		{"neither", `{"gamma":0.002}`, false},
		{"parallelism", `{"gamma":0.002,"parallelism":3}`, false},
		{"shards alias", `{"gamma":0.002,"shards":4}`, true},
		{"parallelism wins", `{"gamma":0.002,"parallelism":2,"shards":4}`, true},
		{"zero shards", `{"gamma":0.002,"shards":0}`, true},
		{"negative parallelism kept", `{"gamma":0.002,"parallelism":-1,"shards":4}`, true},
		{"negative shards", `{"gamma":0.002,"shards":-1}`, true},
		{"negative shards with parallelism", `{"gamma":0.002,"parallelism":2,"shards":-3}`, true},
		{"docs example", `{"gamma":0.002,"samples":20,"iterations":5,"seed":7,"parallelism":0,"shards":0,` +
			`"top_fraction":0.2,"metric":"euclidean","designers":["advisor","autoadmin","ilp"],"member_timeout":"30s"}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req RunRequest
			err := decodeJSON(strings.NewReader(tc.body), &req)
			if !tc.bad {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				return
			}
			if ae := (*apiError)(nil); !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
				t.Fatalf("decode = %v, want a 400 bad_request", err)
			}
		})
	}
}

// TestNegativeShardsRejectedOverHTTP: the retired "shards" key, negative or
// not, is a 400 bad_request on run submission.
func TestNegativeShardsRejectedOverHTTP(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"acme","engine":{"kind":"rowstore"}}`); code != http.StatusCreated {
		t.Fatalf("create tenant: %d %+v", code, env.Error)
	}
	for _, body := range []string{`{"gamma":0.002,"shards":-1}`, `{"gamma":0.002,"shards":2}`} {
		code, env := call(t, client, "POST", ts.URL+"/v1/tenants/acme/runs", "application/json", body)
		if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != "bad_request" {
			t.Fatalf("%s: %d %+v, want 400 bad_request", body, code, env.Error)
		}
	}
}

// TestUnknownDesignerRejectedAtSubmit: designer names are checked at
// admission, so a bad name costs no queue slot or worker; the run and online
// endpoints reject the same body alike.
func TestUnknownDesignerRejectedAtSubmit(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants", "application/json",
		`{"id":"acme","engine":{"kind":"rowstore"}}`); code != http.StatusCreated {
		t.Fatalf("create tenant: %d %+v", code, env.Error)
	}
	if code, env := call(t, client, "POST", ts.URL+"/v1/tenants/acme/workload", "text/plain",
		testSQL(t)); code != http.StatusOK {
		t.Fatalf("post workload: %d %+v", code, env.Error)
	}
	body := `{"gamma":0.002,"designers":["nope"]}`
	for _, path := range []string{"/runs", "/online"} {
		code, env := call(t, client, "POST", ts.URL+"/v1/tenants/acme"+path, "application/json", body)
		if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != "bad_request" ||
			!strings.Contains(env.Error.Message, `unknown designer "nope"`) {
			t.Fatalf("POST %s %s: %d %+v, want 400 bad_request naming the designer", path, body, code, env.Error)
		}
	}
	if runs := srv.metrics.Snapshot(); len(runs.TenantRuns) != 0 {
		t.Fatalf("a rejected submission was admitted: %+v", runs.TenantRuns)
	}
}

// FuzzRunRequest feeds arbitrary bytes through the run-request decoder: it
// must never panic, and a request validate() accepts must lower to options
// core accepts, carrying every loop field over.
func FuzzRunRequest(f *testing.F) {
	for _, tc := range runRequestCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if err := decodeJSON(strings.NewReader(string(body)), &req); err != nil {
			return
		}
		if req.validate() != nil {
			return
		}
		opts := req.Options()
		if err := opts.Validate(); err != nil {
			t.Fatalf("validate accepted %q but Options().Validate() = %v", body, err)
		}
		if opts.Gamma != req.Gamma || opts.Samples != req.Samples || opts.Iterations != req.Iterations ||
			opts.Seed != req.Seed || opts.Parallelism != req.Parallelism || opts.TopFraction != req.TopFraction {
			t.Fatalf("%q: Options() = %+v drops a field of %+v", body, opts, req)
		}
	})
}

// FuzzOnlineSpec feeds arbitrary bytes through the online-spec decoder and
// buildOnline against a test tenant: it must never panic, a rejected spec is
// a 400 bad_request, and an accepted spec's loop fields are exactly a run
// request's: they decode alone as one, and lower to the same options.
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
		`{"gamma":0.002,"top_fraction":0.5,"member_timeout":"1s"}`,
		`{"gamma":0.002,"member_timeout":"-1s"}`,
		`{"gamma":0.002,"member_timeout":"x"}`,
		`{"gamma":0.002,"member_timeout":1.5}`,
		`{"gamma":0.002,"top_fraction":1.5}`,
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
		if info := onlineInfo(st); !info.Enabled || info.Gamma <= 0 {
			t.Fatalf("%q: accepted spec renders as %+v", body, info)
		}
		loop, _ := json.Marshal(spec.RunRequest)
		var req RunRequest
		if err := decodeJSON(bytes.NewReader(loop), &req); err != nil {
			t.Fatalf("%q: loop fields %s do not decode as a run request: %v", body, loop, err)
		}
		if err := req.validate(); err != nil {
			t.Fatalf("%q: accepted online, but its run request is rejected: %v", body, err)
		}
		if got, want := req.Options(), spec.Options(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: run request lowers to %+v, online spec to %+v", body, got, want)
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
