package report

import (
	"strings"
	"testing"
)

// TestCompareBench: the gate passes only when the new run names exactly the
// baseline's values, each within tolerance. A value missing from the new
// run and a value the baseline lacks both fail it; wall-clock and Info
// never do.
func TestCompareBench(t *testing.T) {
	base := func() *BenchResult {
		return &BenchResult{Name: "ONLINE", Seed: 42, WallMs: 100,
			Values: map[string]float64{"calls": 304, "fires": 25}}
	}
	for _, tc := range []struct {
		name   string
		mutate func(b *BenchResult)
		want   []string // substrings of the mismatches, in order; none: pass
	}{
		{"identical", func(*BenchResult) {}, nil},
		{"wall_and_info_ignored", func(b *BenchResult) {
			b.WallMs, b.Info = 900, map[string]float64{"speedup": 2}
		}, nil},
		{"within_tolerance", func(b *BenchResult) { b.Values["calls"] = 304.0001 }, nil},
		{"deviates", func(b *BenchResult) { b.Values["calls"] = 305 }, []string{"calls: baseline 304, new 305"}},
		{"missing", func(b *BenchResult) { delete(b.Values, "fires") }, []string{"fires: missing from new run"}},
		{"extra", func(b *BenchResult) { b.Values["warm_hits"] = 0 }, []string{"warm_hits: new run has 0, baseline lacks it"}},
		{"missing_and_extra", func(b *BenchResult) {
			delete(b.Values, "calls")
			b.Values["b_new"], b.Values["a_new"] = 1, 2
		}, []string{"calls: missing", "a_new: new run has 2", "b_new: new run has 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newB := base()
			tc.mutate(newB)
			bad := CompareBench(base(), newB, 0.01)
			if len(bad) != len(tc.want) {
				t.Fatalf("CompareBench = %q, want %d mismatch(es) %q", bad, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(bad[i], w) {
					t.Errorf("mismatch %d = %q, want it to contain %q", i, bad[i], w)
				}
			}
		})
	}
}
