package serve

import (
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
)

// loopFields is testdata/loop_fields.json: one row per loop field, each
// setting that field over the cliffguard CLI's defaults.
type loopFields struct {
	Base        map[string]any  `json:"base"`
	BaseOptions json.RawMessage `json:"base_options"`
	Fields      []struct {
		Field     string          `json:"field"`
		Set       map[string]any  `json:"set"`
		Options   json.RawMessage `json:"options"`
		Metric    string          `json:"metric"`
		Designers []string        `json:"designers"`
	} `json:"fields"`
}

// TestLoopFieldsReachEveryEntryPoint drives every loop field through the
// /v1 run request, the assembly StartRun runs it through, and the /v1
// online spec and the controller configuration NewOnline builds from it, and
// requires the same core options, metric and designers from each. cmd/cliffguard's TestLoopFlagsLowerToRunRequest
// drives the same rows through the CLI's flags.
func TestLoopFieldsReachEveryEntryPoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/loop_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	var lf loopFields
	if err := json.Unmarshal(raw, &lf); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range lf.Fields {
		t.Run(row.Field, func(t *testing.T) {
			fields := maps.Clone(lf.Base)
			maps.Copy(fields, row.Set)
			body, _ := json.Marshal(fields)
			var want core.Options
			for _, o := range []json.RawMessage{lf.BaseOptions, row.Options} {
				if len(o) > 0 {
					if err := json.Unmarshal(o, &want); err != nil {
						t.Fatal(err)
					}
				}
			}
			wantMetric := row.Metric
			if wantMetric == "" {
				wantMetric = distance.NewEuclidean(eng.Schema().NumColumns()).Name()
			}
			wantDesigners := row.Designers
			if wantDesigners == nil {
				wantDesigners = []string{eng.NominalDesigner(DefaultBudgetBytes).Name()}
			}
			check := func(entry string, opts core.Options, metric distance.Metric, members ...designer.Designer) {
				t.Helper()
				var names []string
				for _, m := range append(members, opts.Portfolio...) {
					names = append(names, m.Name())
				}
				opts.Portfolio = nil
				if !reflect.DeepEqual(opts, want) {
					t.Errorf("%s: options %+v, want %+v", entry, opts, want)
				}
				if metric.Name() != wantMetric || !slices.Equal(names, wantDesigners) {
					t.Errorf("%s: metric %s and designers %v, want %s and %v", entry, metric.Name(), names, wantMetric, wantDesigners)
				}
			}

			// POST .../runs decodes the request, checks it at admission, and
			// the run executes the spec it lowers to through StartRun.
			var req RunRequest
			if err := decodeJSON(strings.NewReader(string(body)), &req); err != nil {
				t.Fatalf("run request %s: %v", body, err)
			}
			if err := req.validate(); err != nil {
				t.Fatalf("run request %s: %v", body, err)
			}
			if got := req.Options(); !reflect.DeepEqual(got, want) {
				t.Errorf("RunRequest.Options() = %+v, want %+v", got, want)
			}
			run := req.Spec()
			run.Opened = eng
			a, err := assemble(run)
			if err != nil {
				t.Fatalf("StartRun's assembly: %v", err)
			}
			check("StartRun", a.opts, a.metric, a.nominal)

			// POST .../online embeds the same request beside its own keys.
			online := strings.TrimSuffix(string(body), "}") + `,"drift_fraction":0.5,"buckets":2}`
			var spec OnlineSpec
			if err := decodeJSON(strings.NewReader(online), &spec); err != nil {
				t.Fatalf("online spec %s: %v", online, err)
			}
			if !reflect.DeepEqual(spec.RunRequest, req) {
				t.Errorf("online spec carries %+v, want %+v", spec.RunRequest, req)
			}
			cfg, _, err := onlineConfig(eng, 0, spec, nil, nil, nil)
			if err != nil {
				t.Fatalf("NewOnline's config: %v", err)
			}
			check("NewOnline", cfg.Options, cfg.Metric, cfg.Designer)
			if _, _, err := NewOnline(eng, 0, spec, nil, nil, nil); err != nil {
				t.Fatalf("NewOnline: %v", err)
			}
		})
	}
}
