package sqlparse_test

import (
	"runtime"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/schema"
	"cliffguard/internal/sqlparse"
	"cliffguard/internal/wlgen"
)

// r1Month0 renders the statements of R1's first month: the 1,600 mostly
// distinct statements a served /v1 job posts. Generating two months yields
// the same first month as the full 13-month preset, in a tenth of the time.
func r1Month0(tb testing.TB, s *schema.Schema) []string {
	cfg := wlgen.R1Config(s, 1)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	set, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	var month []string
	for _, it := range set.Months[0].Items {
		month = append(month, it.Q.SQL)
	}
	return month
}

// BenchmarkParse parses R1's first month with one long-lived Parser, the
// way ingest does; one op is one statement.
func BenchmarkParse(b *testing.B) {
	s := datagen.Warehouse(1)
	month := r1Month0(b, s)
	p := sqlparse.NewParser(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(month[i%len(month)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocations gates the served path's parse cost on R1's first
// month: a warm Parser allocates at most 10 times and 640 bytes per
// statement (the Spec, the Query and their slices and bitsets), and the
// lexer, with its buffer warm, allocates nothing.
func TestParseAllocations(t *testing.T) {
	s := datagen.Warehouse(1)
	month := r1Month0(t, s)
	p := sqlparse.NewParser(s)
	parseAll := func() {
		for _, sql := range month {
			if _, err := p.Parse(sql); err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
		}
	}
	parseAll()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	parseAll()
	runtime.ReadMemStats(&ms1)
	n := float64(len(month))
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / n
	bytes := float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	if allocs > 10 || bytes > 640 {
		t.Errorf("Parse allocates %.1f times and %.0f bytes per statement, want at most 10 and 640", allocs, bytes)
	}

	var l sqlparse.Lexer
	lexAll := func() {
		for _, sql := range month {
			if err := l.Lex(sql); err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
		}
	}
	lexAll()
	if a := testing.AllocsPerRun(3, lexAll); a != 0 {
		t.Errorf("lexing the month into a warm buffer allocates %.0f times, want 0", a)
	}
}
