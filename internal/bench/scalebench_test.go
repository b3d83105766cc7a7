package bench

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// TestLogStreamFillsReads pins the SCALE log generator: every Read but the
// last fills the caller's buffer, and the stream is the line-by-line
// rendering of the cycled statements.
func TestLogStreamFillsReads(t *testing.T) {
	base := []string{"SELECT a FROM t", "SELECT b FROM t WHERE c = 1"}
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	const n = 1000
	var want bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&want, "%s\t%s\n", t0.Add(time.Duration(i)*time.Second).Format(time.RFC3339), base[i%len(base)])
	}
	ls := &logStream{base: base, t0: t0, n: n}
	var got bytes.Buffer
	p := make([]byte, 4096)
	for {
		k, err := ls.Read(p)
		got.Write(p[:k])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if k != len(p) && got.Len() != want.Len() {
			t.Fatalf("short read of %d bytes at offset %d before the end", k, got.Len()-k)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("stream differs from the rendered log (%d vs %d bytes)", got.Len(), want.Len())
	}
}
