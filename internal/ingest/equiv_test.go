package ingest

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// equivSchema is the one-table schema the differential tests parse against.
func equivSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{{
		Name: "t", Rows: 100000, Fact: true,
		Columns: []schema.ColumnDef{
			{Name: "a", Type: schema.Int64, Cardinality: 100},
			{Name: "b", Type: schema.Int64, Cardinality: 1000},
			{Name: "c", Type: schema.Int64, Cardinality: 50},
			{Name: "d", Type: schema.Int64, Cardinality: 10},
		},
	}})
}

// result is one ingestion pass's full output.
type result struct {
	w   *workload.Workload
	st  Stats
	err error
}

// diffResults returns the first difference between two passes, or "": error
// text, Stats, and item for item the weight, ID, timestamp (instant and
// zone), SQL text and fold key, in fold order.
func diffResults(got, want result) string {
	if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	}
	if got.st != want.st {
		return fmt.Sprintf("stats %+v, want %+v", got.st, want.st)
	}
	if (got.w == nil) != (want.w == nil) {
		return fmt.Sprintf("workload nil = %v, want %v", got.w == nil, want.w == nil)
	}
	if got.w == nil {
		return ""
	}
	if got.w.Len() != want.w.Len() {
		return fmt.Sprintf("len %d, want %d", got.w.Len(), want.w.Len())
	}
	for i := range want.w.Items {
		g, w := got.w.Items[i], want.w.Items[i]
		gName, gOff := g.Q.Timestamp.Zone()
		wName, wOff := w.Q.Timestamp.Zone()
		switch {
		case g.Weight != w.Weight:
			return fmt.Sprintf("item %d: weight %v, want %v", i, g.Weight, w.Weight)
		case g.Q.ID != w.Q.ID:
			return fmt.Sprintf("item %d: ID %d, want %d", i, g.Q.ID, w.Q.ID)
		case !g.Q.Timestamp.Equal(w.Q.Timestamp) || gName != wName || gOff != wOff:
			return fmt.Sprintf("item %d: timestamp %v, want %v", i, g.Q.Timestamp, w.Q.Timestamp)
		case g.Q.SQL != w.Q.SQL:
			return fmt.Sprintf("item %d: SQL %q, want %q", i, g.Q.SQL, w.Q.SQL)
		case g.Q.FoldKey() != w.Q.FoldKey():
			return fmt.Sprintf("item %d: fold key differs", i)
		}
	}
	return ""
}

// compareReader ingests log with Reader and with the reference under both
// fold modes and fails on any difference. It returns the folded result.
func compareReader(t *testing.T, name, log string, opts Options) result {
	t.Helper()
	s := equivSchema()
	var folded result
	for _, noFold := range []bool{false, true} {
		o := opts
		o.NoFold = noFold
		var got, want result
		got.w, got.st, got.err = Reader(s, strings.NewReader(log), o)
		want.w, want.st, want.err = referenceReader(s, strings.NewReader(log), o)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("%s (NoFold=%v): %s", name, noFold, d)
		}
		if !noFold {
			folded = got
		}
	}
	return folded
}

// stmt is the i-th of a family of distinct single-line statements.
func stmt(i int) string {
	cols := "abcd"
	return fmt.Sprintf("SELECT %c FROM t WHERE %c = %d", cols[i%4], cols[(i/4)%4], i/16)
}

// firstBatchLen runs the scan stage over log and returns the number of
// lines its first batch carries.
func firstBatchLen(log string) int {
	full, free, done := make(chan *batch, 1), make(chan *batch, 1), make(chan struct{})
	free <- &batch{}
	go scanLines(strings.NewReader(log), DefaultMaxStatementBytes, full, free, done)
	n := len((<-full).lines)
	close(done)
	for range full {
	}
	return n
}

// TestEquivMultiLineAcrossBatches places multi-line statements (and a
// multi-line garbage run that resyncs) on every line offset around the
// first batch boundary, both when the batch closes on its line count and
// when it closes on its byte budget.
func TestEquivMultiLineAcrossBatches(t *testing.T) {
	pad := strings.Repeat(" ", 1000) // interior whitespace survives the trim
	for _, tc := range []struct {
		name string
		line func(i int) string
	}{
		{"line_count", stmt},
		{"byte_budget", func(i int) string { return "SELECT a FROM t WHERE" + pad + fmt.Sprintf("b = %d", i%40) }},
	} {
		var prefix strings.Builder
		for i := 0; i < batchLines+10; i++ {
			prefix.WriteString(tc.line(i) + "\n")
		}
		boundary := firstBatchLen(prefix.String())
		if tc.name == "line_count" && boundary != batchLines {
			t.Fatalf("first batch holds %d lines, want %d", boundary, batchLines)
		}
		if tc.name == "byte_budget" && boundary >= batchLines {
			t.Fatalf("first batch holds %d lines: the byte budget did not close it", boundary)
		}
		for off := boundary - 4; off <= boundary+1; off++ {
			var b strings.Builder
			for i := 0; i < off; i++ {
				b.WriteString(tc.line(i) + "\n")
			}
			b.WriteString("2025-03-01T00:00:00Z\tSELECT a,\n  b\nFROM t\nWHERE c = 2;\n")
			b.WriteString("GARBAGE HEAD\nMORE GARBAGE\n" + stmt(5) + "\n")
			b.WriteString("SELECT d\nFROM t;\n")
			for i := 0; i < 50; i++ {
				b.WriteString(tc.line(i) + "\n")
			}
			b.WriteString("SELECT a,\n  b\nFROM t\nWHERE c = 2;\n")
			res := compareReader(t, fmt.Sprintf("%s off=%d", tc.name, off), b.String(), Options{FirstID: 1})
			if res.st.Skipped != 2 {
				t.Fatalf("%s off=%d: skipped = %d, want the 2 garbage lines", tc.name, off, res.st.Skipped)
			}
		}
	}
}

// TestEquivLineForms covers CRLF endings, timestamp-like prefixes that are
// not timestamps, RFC3339 spellings only time.Parse's general parser
// accepts, zone offsets, comments, blank-line flushes and terminators.
func TestEquivLineForms(t *testing.T) {
	lines := []string{
		"2025-03-01T00:00:00Z\tSELECT a FROM t WHERE b = 1",
		"garbage\tSELECT a FROM t WHERE b = 1",
		"2025-13-01T00:00:00Z\tSELECT c FROM t WHERE d = 2",
		"2025-03-01T00:00:00\tSELECT c FROM t WHERE d = 2",
		"2025-03-01T1:02:03Z\tSELECT a FROM t WHERE c = 3",    // one-digit hour
		"2025-03-01T01:02:03,5Z\tSELECT a FROM t WHERE c = 4", // comma fraction
		"2025-03-01T01:02:03.25+02:00\tSELECT b FROM t WHERE a = 5",
		"2025-03-01T01:02:03-07:30\tSELECT b FROM t WHERE a = 6;",
		"  \t2025-03-01T00:00:00Z\tSELECT d FROM t WHERE a = 7  ",
		"-- comment\twith a tab",
		"2025-03-01T00:00:00Z\t-- not a comment",
		"SELECT a,",
		"2025-03-01T00:00:00Z\tb FROM t;",
		"",
		"SELECT a,",
		"",
		"2025-03-01T00:00:00Z\t;",
		"SELECT a FROM t WHERE b = 1 ;",
	}
	for _, eol := range []string{"\n", "\r\n"} {
		log := strings.Join(lines, eol) + eol + strings.Join(lines, eol)
		res := compareReader(t, fmt.Sprintf("eol=%q", eol), log, Options{FirstID: 7})
		// The two spellings only time.Parse's general parser accepts were
		// split off as timestamps.
		kept := map[int]bool{}
		for _, it := range res.w.Items {
			if ts := it.Q.Timestamp; ts.Location() == time.UTC && ts.Hour() == 1 && ts.Minute() == 2 && ts.Second() == 3 {
				kept[ts.Nanosecond()] = true
			}
		}
		if !kept[0] || !kept[5e8] {
			t.Errorf("eol=%q: slow-path timestamps kept = %v, want 0 and 5e8 ns", eol, kept)
		}
	}
}

// TestEquivMemoCap ingests more distinct texts than the text memo holds,
// then repeats texts from both sides of the cap.
func TestEquivMemoCap(t *testing.T) {
	var b strings.Builder
	n := textMemoCap + 4000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "SELECT a FROM t WHERE b = %d\n", i)
	}
	for i := 0; i < n; i += 997 {
		fmt.Fprintf(&b, "SELECT a FROM t WHERE b = %d\nNOT SQL %d\n", i, i%3)
	}
	res := compareReader(t, "memo_cap", b.String(), Options{FirstID: 1})
	if res.st.Templates != n {
		t.Fatalf("templates = %d, want %d", res.st.Templates, n)
	}
}

// TestEquivErrors pins the error paths: a line over the statement cap and a
// reader failing mid-stream both fail with the reference's exact text.
func TestEquivErrors(t *testing.T) {
	s := equivSchema()
	head := strings.Repeat(stmt(3)+"\n", 3*batchLines)
	long := head + "SELECT a FROM t WHERE b =" + strings.Repeat(" ", DefaultMaxStatementBytes) + "1\n" + stmt(4) + "\n"
	res := compareReader(t, "too_long", long, Options{FirstID: 1})
	if res.err == nil || !strings.HasSuffix(res.err.Error(), "bufio.Scanner: token too long") {
		t.Fatalf("too-long line: err = %v", res.err)
	}
	for _, noFold := range []bool{false, true} {
		opts := Options{FirstID: 1, NoFold: noFold}
		reader := func() io.Reader {
			return io.MultiReader(strings.NewReader(head+"SELECT a,\n"), iotest.ErrReader(errors.New("disk gone")))
		}
		var got, want result
		got.w, got.st, got.err = Reader(s, reader(), opts)
		want.w, want.st, want.err = referenceReader(s, reader(), opts)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("reader error (NoFold=%v): %s", noFold, d)
		}
		if got.err == nil || got.err.Error() != "ingest: reading workload: disk gone" {
			t.Fatalf("reader error: err = %v", got.err)
		}
	}
}

// TestEquivDir folds across file boundaries: a pending multi-line head at
// the end of one file is flushed there, and duplicates fold into the first
// file's entries.
func TestEquivDir(t *testing.T) {
	s := equivSchema()
	dir := t.TempDir()
	files := map[string]string{
		"a.sql": strings.Repeat(stmt(1)+"\n", batchLines+3) + "SELECT a,\n",
		"b.sql": "b FROM t;\n" + strings.Repeat(stmt(1)+"\n"+stmt(2)+"\r\n", 100),
		"c.sql": "2025-03-01T00:00:00Z\t" + stmt(2) + ";\nSELECT c\nFROM t;",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, noFold := range []bool{false, true} {
		opts := Options{FirstID: 1, NoFold: noFold}
		var got, want result
		got.w, got.st, got.err = Dir(s, dir, opts)
		want.w, want.st, want.err = referenceDir(s, dir, opts)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("Dir (NoFold=%v): %s", noFold, d)
		}
		if !noFold && (got.st.Templates != 3 || got.w.Items[0].Weight != batchLines+103) {
			t.Fatalf("Dir: %d templates, first weight %v: want 3 and %d (folding across files)",
				got.st.Templates, got.w.Items[0].Weight, batchLines+103)
		}
	}
}

// TestEquivRandomLogs diffs seeded logs that mix every line form over
// several batches.
func TestEquivRandomLogs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		compareReader(t, fmt.Sprintf("seed %d", seed), mixedLog(seed, 3*batchLines), Options{FirstID: seed})
	}
}

// mixedLog renders n lines drawn from every form the grammar knows.
func mixedLog(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.WriteString(base.Add(time.Duration(i) * time.Second).Format(time.RFC3339))
			b.WriteByte('\t')
		}
		switch rng.Intn(14) {
		case 0:
			b.WriteString("-- comment")
		case 1:
			b.WriteString("   ")
		case 2:
			b.WriteString("NOT SQL")
		case 3:
			b.WriteString("SELECT a,\n b\nFROM t WHERE c = 1;")
		case 4:
			b.WriteString("SELECT a,\nb FROM t WHERE")
		case 5:
			b.WriteString(stmt(rng.Intn(30)) + ";")
		default:
			b.WriteString(stmt(rng.Intn(30)))
		}
		if rng.Intn(5) == 0 {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzReader diffs the pipelined reader against the reference over
// arbitrary input, under a small statement cap so the multi-line overflow
// flush is reachable.
func FuzzReader(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t WHERE b = 1\nSELECT a,\n       b\nFROM t\nWHERE c = 2;\n-- a comment inside the stream\n2025-03-01T00:00:00Z\tSELECT c FROM t WHERE d = 3\nSELECT d\nFROM t;",
		"GARBAGE ONE\nGARBAGE TWO\nSELECT a FROM t WHERE b = 1\nMORE GARBAGE\nSELECT c FROM t WHERE d = 2",
		"2025-03-01T1:02:03Z\tSELECT a FROM t\r\ngarbage\tSELECT b FROM t;\r\n\r\nSELECT a,\n\n;",
		mixedLog(1, 40),
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	s := equivSchema()
	f.Fuzz(func(t *testing.T, data []byte, noFold bool) {
		opts := Options{FirstID: 1, NoFold: noFold, MaxStatementBytes: 64}
		var got, want result
		got.w, got.st, got.err = Reader(s, strings.NewReader(string(data)), opts)
		want.w, want.st, want.err = referenceReader(s, strings.NewReader(string(data)), opts)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("%q: %s", data, d)
		}
	})
}
