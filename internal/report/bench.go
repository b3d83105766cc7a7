package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// BenchSchemaVersion versions the BENCH_*.json baseline files the same way
// the JSONL streams are versioned.
const BenchSchemaVersion = 1

// BenchResult is one benchmark experiment's baseline: the deterministic key
// values of its tables/figures plus the (informational) wall-clock time.
// cmd/benchrunner writes these with -bench-json; `cliffreport bench` gates
// new runs against a baseline directory.
type BenchResult struct {
	Schema      int                `json:"schema"`
	Name        string             `json:"name"`
	Seed        int64              `json:"seed"`
	Parallelism int                `json:"parallelism"`
	WallMs      float64            `json:"wall_ms"`
	Values      map[string]float64 `json:"values"`
	// Info carries machine-dependent observations (wall-clock speedups and
	// the like). Like WallMs it is recorded for the trajectory but never
	// compared by CompareBench.
	Info map[string]float64 `json:"info,omitempty"`
}

// LoadBench reads and validates one BENCH_*.json file.
func LoadBench(path string) (*BenchResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var b BenchResult
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	if b.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("report: %s: unknown bench schema version %d (this build reads version %d)",
			path, b.Schema, BenchSchemaVersion)
	}
	if b.Name == "" {
		return nil, fmt.Errorf("report: %s: missing experiment name", path)
	}
	if len(b.Values) == 0 {
		return nil, fmt.Errorf("report: %s: no values recorded", path)
	}
	return &b, nil
}

// WriteFile writes the baseline as indented JSON.
func (b *BenchResult) WriteFile(path string) error {
	b.Schema = BenchSchemaVersion
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// CompareBench checks a new benchmark result against its baseline: every
// baseline value must be reproduced within relTolPct percent (the experiment
// values are seed-deterministic, so the tolerance only absorbs float
// formatting), and the two must name the same values: none may disappear,
// and none may appear that the baseline lacks. WallMs and Info are
// informational and never compared. The returned slice lists mismatches;
// empty means the gate passed.
func CompareBench(oldB, newB *BenchResult, relTolPct float64) []string {
	var bad []string
	if oldB.Name != newB.Name {
		bad = append(bad, fmt.Sprintf("experiment name: baseline %q, new %q", oldB.Name, newB.Name))
	}
	if oldB.Seed != newB.Seed {
		bad = append(bad, fmt.Sprintf("seed: baseline %d, new %d (values are only comparable for the same seed)",
			oldB.Seed, newB.Seed))
	}
	keys := make([]string, 0, len(oldB.Values))
	for k := range oldB.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want := oldB.Values[k]
		got, ok := newB.Values[k]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from new run (baseline %g)", k, want))
			continue
		}
		if want == got {
			continue
		}
		scale := math.Max(math.Abs(want), math.Abs(got))
		if math.Abs(got-want)/scale*100 > relTolPct {
			bad = append(bad, fmt.Sprintf("%s: baseline %g, new %g (tolerance %g%%)", k, want, got, relTolPct))
		}
	}
	extra := make([]string, 0, len(newB.Values))
	for k := range newB.Values {
		if _, ok := oldB.Values[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		bad = append(bad, fmt.Sprintf("%s: new run has %g, baseline lacks it", k, newB.Values[k]))
	}
	return bad
}
