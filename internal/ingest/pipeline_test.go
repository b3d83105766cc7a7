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
