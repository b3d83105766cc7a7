package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
