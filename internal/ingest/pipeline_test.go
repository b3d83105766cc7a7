package ingest

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/wlgen"
)

// cycledLog renders n lines in the wlgen format by cycling month's
// statements, stamped one second apart.
func cycledLog(month []string, n int) []byte {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var b []byte
	for i := 0; i < n; i++ {
		b = t0.Add(time.Duration(i)*time.Second).AppendFormat(b, time.RFC3339)
		b = append(b, '\t')
		b = append(b, month[i%len(month)]...)
		b = append(b, '\n')
	}
	return b
}

// TestMemoHitsDoNotAllocate is the allocation gate: doubling a log whose
// extra lines are all text-memo hits adds no allocations beyond a small
// constant (batch growth and scheduling), none per line.
func TestMemoHitsDoNotAllocate(t *testing.T) {
	s := equivSchema()
	month := []string{stmt(0), stmt(1), stmt(2), stmt(3) + ";", stmt(17), stmt(40), stmt(41), stmt(63)}
	const n = 16 * batchLines
	allocs := func(log []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := Reader(s, bytes.NewReader(log), Options{FirstID: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, twice := allocs(cycledLog(month, n)), allocs(cycledLog(month, 2*n))
	const bound = 16
	if extra := twice - once; extra > bound {
		t.Fatalf("%d more memo-hit lines cost %.0f more allocations (%.0f -> %.0f), bound %d",
			n, extra, once, twice, bound)
	}
}

// afterReturn is a reader that records any Read issued after the call that
// owns it has returned.
type afterReturn struct {
	r            io.Reader
	returned     atomic.Bool
	readsTooLate atomic.Int32
}

func (a *afterReturn) Read(p []byte) (int, error) {
	if a.returned.Load() {
		a.readsTooLate.Add(1)
	}
	return a.r.Read(p)
}

// TestScanGoroutineExits checks that the scan goroutine is gone, and reads
// nothing more, once Reader returns: after a normal read, a reader failing
// mid-stream, and a line over the statement cap.
func TestScanGoroutineExits(t *testing.T) {
	s := equivSchema()
	log := strings.Repeat(stmt(1)+"\n", 5*batchLines)
	long := log + strings.Repeat("x", DefaultMaxStatementBytes+1) + "\n" + log
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		r       io.Reader
		wantErr bool
	}{
		{"normal", strings.NewReader(log), false},
		{"reader_error", io.MultiReader(strings.NewReader(log), iotest.ErrReader(errors.New("disk gone"))), true},
		{"too_long", strings.NewReader(long), true},
	} {
		ar := &afterReturn{r: tc.r}
		_, _, err := Reader(s, ar, Options{FirstID: 1})
		ar.returned.Store(true)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after Reader returned, want %d:\n%s",
				tc.name, n, base, buf[:runtime.Stack(buf, true)])
		}
		if k := ar.readsTooLate.Load(); k != 0 {
			t.Fatalf("%s: %d reads after Reader returned", tc.name, k)
		}
	}
}

// r1Month0 renders the statements of R1's first month (the month the
// benchmark's batch-1m workload cycles). Generating two months yields the
// same first month as the full 13-month preset, in a tenth of the time.
func r1Month0(b *testing.B) []string {
	cfg := wlgen.R1Config(datagen.Warehouse(1), 1)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	set, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var month []string
	for _, it := range set.Months[0].Items {
		month = append(month, it.Q.SQL)
	}
	return month
}

// BenchmarkReader1M folds a 1M-line log: R1's first month, cycled, with
// wlgen timestamps. Compare -cpu 1 and -cpu 2 to see the scan stage's
// overlap.
func BenchmarkReader1M(b *testing.B) {
	s := datagen.Warehouse(1)
	log := cycledLog(r1Month0(b), 1_000_000)
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Reader(s, bytes.NewReader(log), Options{FirstID: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// oneLine is a single timestamped statement: the body of an online observe
// call.
var oneLine = []byte("2024-01-01T00:00:00Z\tSELECT a FROM t WHERE b = 7\n")

// TestReaderOneLineAllocations gates the fixed cost of a Reader call: a
// one-line body must not pay for full-size scan buffers, arenas and line
// slices it never fills.
func TestReaderOneLineAllocations(t *testing.T) {
	s := equivSchema()
	var ms0, ms1 runtime.MemStats
	const runs = 50
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		if _, _, err := Reader(s, bytes.NewReader(oneLine), Options{FirstID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	const bound = 32 << 10
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / runs; per >= bound {
		t.Fatalf("a one-line Reader call allocates %d bytes, want under %d", per, bound)
	}
}

// BenchmarkReaderOneLine folds a one-line log: the per-call fixed cost every
// workload POST and online observe call pays.
func BenchmarkReaderOneLine(b *testing.B) {
	s := equivSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Reader(s, bytes.NewReader(oneLine), Options{FirstID: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLineCapUnderSmallStatementCap: the scanner starts with a small
// buffer, yet under a statement cap below 64 KiB a line still fails only
// past 64 KiB, as in the reference: a 10 KiB single-line statement is read
// and, being over the cap, skipped unparsed; a 70 KiB line ends the read
// with an error.
func TestLineCapUnderSmallStatementCap(t *testing.T) {
	s := equivSchema()
	opts := Options{FirstID: 1, MaxStatementBytes: 64}
	for _, n := range []int{10 << 10, 70 << 10} {
		log := stmt(1) + "\nSELECT a FROM t WHERE b =" + strings.Repeat(" ", n) + "1\n" + stmt(2) + "\n"
		var got, want result
		got.w, got.st, got.err = Reader(s, strings.NewReader(log), opts)
		want.w, want.st, want.err = referenceReader(s, strings.NewReader(log), opts)
		if d := diffResults(got, want); d != "" {
			t.Fatalf("%d-byte line: %s", n, d)
		}
		if long := n > 64<<10; (got.err != nil) != long || !long && (got.st.Streamed != 2 || got.st.Skipped != 1) {
			t.Fatalf("%d-byte line: stats %+v, err %v", n, got.st, got.err)
		}
	}
}

// TestStampFastPathMatchesParse runs one scan stage's date memo over a
// sequence of timestamp prefixes — in-range and out-of-range clocks, date
// changes, leap days, non-Z zones and fractional seconds — and requires
// every result to be == to time.Parse(time.RFC3339, ...)'s (in UTC; by
// instant and zone otherwise), with the same acceptance. A memo primed with a wrong midnight then shows which prefixes
// take the fast path: exactly the plain in-range Z forms on its date.
func TestStampFastPathMatchesParse(t *testing.T) {
	var prefixes []string
	for _, date := range []string{
		"2025-03-01", "2025-03-02", "2024-02-29", "2023-02-29", "2000-02-29",
		"1900-02-29", "2024-12-31", "2025-01-01", "0000-01-01", "9999-12-31",
		"2025-13-01", "2025-00-10", "2025-04-31",
	} {
		for _, clock := range []string{
			"00:00:00Z", "23:59:59Z", "24:00:00Z", "23:60:00Z", "23:59:60Z",
			"12:34:56Z", "19:59:59Z", "09:09:09Z", "1:02:03Z", "12:3a:00Z",
			"12:34:56z", "12:34:56.5Z", "12:34:56,25Z", "12:34:56+00:00",
			"12:34:56-07:30", "23:59:59+23:59", "12:34:56", "12:34:56ZZ",
		} {
			prefixes = append(prefixes, date+"T"+clock)
		}
		prefixes = append(prefixes, date+"t12:34:56Z", date+" 12:34:56Z", date)
	}
	// Each parse of an offset builds its own *time.Location, so results
	// in a fixed zone are compared by instant, zone name and offset.
	same := func(a, b time.Time) bool {
		if a.Location() == time.UTC || b.Location() == time.UTC {
			return a == b
		}
		an, ao := a.Zone()
		bn, bo := b.Zone()
		return a.Equal(b) && an == bn && ao == bo
	}
	var day dayMemo
	for _, p := range prefixes {
		want, err := time.Parse(time.RFC3339, p)
		got, ok := day.parse([]byte(p))
		if ok != (err == nil) || !same(got, want) {
			t.Errorf("%q: (%v, %v), want (%v, err %v)", p, got, ok, want, err)
		}
	}

	// An accepted slow-path prefix primes the memo with its date.
	if _, ok := day.parse([]byte("2031-07-04T05:06:07.5Z")); !ok || !day.ok ||
		string(day.date[:]) != "2031-07-04" || day.midnight != time.Date(2031, 7, 4, 0, 0, 0, 0, time.UTC).Unix() {
		t.Errorf("memo after a slow-path prefix: %+v", day)
	}

	// A memo holding an accepted date with a midnight no date has: a result
	// past every real date came from the fast path.
	const fake = 1 << 50
	for _, p := range prefixes {
		_, err := time.Parse(time.RFC3339, p)
		if err != nil && len(p) >= 10 {
			if _, err := time.Parse(time.DateOnly, p[:10]); err != nil {
				continue // the memo only ever holds accepted dates
			}
		}
		m := dayMemo{ok: true, midnight: fake}
		copy(m.date[:], p)
		ts, _ := m.parse([]byte(p))
		want := err == nil && len(p) == len("2006-01-02T15:04:05Z") && p[19] == 'Z'
		if got := ts.Unix() >= fake; got != want {
			t.Errorf("%q: fast path taken = %v, want %v", p, got, want)
		}
	}
}

// zeroReads returns (0, nil) n times before each read of r.
type zeroReads struct {
	r    io.Reader
	n, k int
}

func (z *zeroReads) Read(p []byte) (int, error) {
	if z.k < z.n {
		z.k++
		return 0, nil
	}
	z.k = 0
	return z.r.Read(p)
}

// TestReaderMatchesScannerEdges diffs the in-place line splitter against
// the reference's bufio.Scanner where their reads differ most: readers that
// return one byte or half a buffer at a time, data together with io.EOF, a
// timeout error, runs of empty reads (100 are tolerated, 101 are
// io.ErrNoProgress), CRLF endings, an unterminated last line, and lines
// either side of the 64 KiB line cap.
func TestReaderMatchesScannerEdges(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 3*batchLines; i++ {
		b.WriteString(stmt(i % 40))
		if i%7 == 0 {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
	}
	body := b.String() + "SELECT a,\nb FROM t WHERE c = 1;\r\n" + stmt(3)
	wrap := map[string]func(io.Reader) io.Reader{
		"plain":       func(r io.Reader) io.Reader { return r },
		"one_byte":    iotest.OneByteReader,
		"half":        iotest.HalfReader,
		"data_err":    iotest.DataErrReader,
		"timeout":     iotest.TimeoutReader,
		"empties_100": func(r io.Reader) io.Reader { return &zeroReads{r: r, n: maxEmptyReads} },
		"empties_101": func(r io.Reader) io.Reader { return &zeroReads{r: r, n: maxEmptyReads + 1} },
	}
	line := func(n int) string {
		return "SELECT a FROM t WHERE b =" + strings.Repeat(" ", n-len("SELECT a FROM t WHERE b =1")) + "1"
	}
	logs := map[string]string{
		"body":                 body,
		"crlf_unterm":          "2025-03-01T00:00:00Z\t" + stmt(1) + "\r\n" + stmt(2) + "\r",
		"cap_minus_one":        stmt(1) + "\n" + line(scanLineFloor-1) + "\n" + stmt(2) + "\n",
		"cap":                  stmt(1) + "\n" + line(scanLineFloor) + "\n" + stmt(2) + "\n",
		"cap_crlf":             stmt(1) + "\n" + line(scanLineFloor-1) + "\r\n" + stmt(2) + "\n",
		"cap_unterm":           stmt(1) + "\n" + line(scanLineFloor),
		"cap_minus_one_unterm": stmt(1) + "\n" + line(scanLineFloor-1),
	}
	s := equivSchema()
	for wname, w := range wrap {
		for lname, log := range logs {
			if wname != "plain" && wname != "data_err" && lname != "body" && lname != "crlf_unterm" {
				continue // the cap cases only need the two EOF deliveries
			}
			for _, noFold := range []bool{false, true} {
				opts := Options{FirstID: 1, NoFold: noFold, MaxStatementBytes: 64}
				var got, want result
				got.w, got.st, got.err = Reader(s, w(strings.NewReader(log)), opts)
				want.w, want.st, want.err = referenceReader(s, w(strings.NewReader(log)), opts)
				if d := diffResults(got, want); d != "" {
					t.Fatalf("%s/%s (NoFold=%v): %s", wname, lname, noFold, d)
				}
				if wname == "empties_101" && !errors.Is(got.err, io.ErrNoProgress) {
					t.Fatalf("%s/%s: err = %v, want io.ErrNoProgress", wname, lname, got.err)
				}
			}
		}
	}
}

// TestFirstBatchStartsSmall: a one-line body is read into the small first
// batch, 4 KiB of arena and 32 lines, not full-size buffers.
func TestFirstBatchStartsSmall(t *testing.T) {
	full, free, done := make(chan *batch, 1), make(chan *batch, 1), make(chan struct{})
	free <- &batch{}
	go scanLines(bytes.NewReader(oneLine), DefaultMaxStatementBytes, full, free, done)
	b := <-full
	close(done)
	for range full {
	}
	if len(b.lines) != 1 || cap(b.arena) != firstBatchBytes || cap(b.lines) != firstBatchLines {
		t.Fatalf("first batch: %d lines, arena cap %d, lines cap %d; want 1, %d, %d",
			len(b.lines), cap(b.arena), cap(b.lines), firstBatchBytes, firstBatchLines)
	}
}
