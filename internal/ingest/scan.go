package ingest

import (
	"bufio"
	"bytes"
	"io"
	"time"
)

// Scan-stage sizing. A batch closes at batchLines lines or once its arena
// holds batchBytes, whichever comes first, so one batch stays a few hundred
// KiB however long the lines are (an over-long statement line still fits:
// the arena grows to hold it). pipelineBatches batches circulate between the
// two stages: one filling, one folding, two in flight.
//
// A call starts small, so a one-line body does not pay for buffers it never
// fills: the scanner starts with scanStartBytes (bufio.Scanner doubles it,
// up to the line cap, for a longer line) and the first batch with
// firstBatchBytes of arena and firstBatchLines lines. A first batch that
// fills its lines moves to full-size buffers; later batches start at full
// size.
const (
	batchLines      = 2048
	batchBytes      = 256 << 10
	pipelineBatches = 4

	scanStartBytes  = 4 << 10
	scanLineFloor   = 64 << 10
	firstBatchBytes = 4 << 10
	firstBatchLines = 32
)

// scanned is one trimmed, non-comment log line inside its batch's arena.
type scanned struct {
	start, end int       // arena[start:end] is the trimmed line; empty is a blank line
	sql        int       // arena[sql:end] is the statement after any timestamp prefix
	ts         time.Time // the prefix's timestamp (zero without one)
}

// batch carries consecutive scanned lines from the scan stage to the fold
// stage. err, when set, is the scanner's terminal error and follows the last
// line of the batch.
type batch struct {
	arena []byte
	lines []scanned
	err   error
}

// add appends one raw scanner line: the stateless half of the statement
// grammar (trim, comment drop, timestamp split). Comment lines change no
// fold state, so they never reach the fold stage.
func (b *batch) add(raw []byte) {
	text := bytes.TrimSpace(raw)
	if bytes.HasPrefix(text, commentPrefix) {
		return
	}
	start := len(b.arena)
	b.arena = append(b.arena, text...)
	l := scanned{start: start, end: len(b.arena), sql: start}
	if i := bytes.IndexByte(text, '\t'); i > 0 {
		if ts, ok := parseTimestamp(text[:i]); ok {
			l.ts, l.sql = ts, start+i+1
		}
	}
	b.lines = append(b.lines, l)
}

// grow moves a small first batch that has filled its lines into
// full-size buffers: the body is more than a few lines, so growing by
// append would only copy it repeatedly on the way to full size.
func (b *batch) grow() {
	arena := make([]byte, len(b.arena), max(batchBytes, cap(b.arena)))
	copy(arena, b.arena)
	lines := make([]scanned, len(b.lines), batchLines)
	copy(lines, b.lines)
	b.arena, b.lines = arena, lines
}

var commentPrefix = []byte("--")

// parseTimestamp accepts b exactly when time.Parse(time.RFC3339, ...) does,
// with the same result. UnmarshalText runs the same RFC3339 fast path
// without copying b; anything it rejects goes to time.Parse itself.
func parseTimestamp(b []byte) (time.Time, bool) {
	var ts time.Time
	if ts.UnmarshalText(b) == nil {
		return ts, true
	}
	ts, err := time.Parse(time.RFC3339, string(b))
	return ts, err == nil
}

// scanLines is the scan stage: it owns the bufio.Scanner over r and sends
// full batches, in order, on full, taking empty ones from free. It closes
// full when r is exhausted or fails (the last batch then carries the error),
// or as soon as done is closed.
func scanLines(r io.Reader, maxBytes int, full chan<- *batch, free <-chan *batch, done <-chan struct{}) {
	defer close(full)
	// bufio.Scanner rejects a line with ErrTooLong only once its buffer is
	// full at the larger of the buffer's first size and the max it was
	// given. The buffer used to start at scanLineFloor, so the line cap is
	// the larger of that and maxBytes; it stays so with a smaller start.
	limit := max(maxBytes, scanLineFloor)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, scanStartBytes), limit)
	for first := true; ; first = false {
		var b *batch
		select {
		case b = <-free:
		case <-done:
			return
		}
		switch {
		case first:
			b.arena, b.lines = make([]byte, 0, firstBatchBytes), make([]scanned, 0, firstBatchLines)
		case b.lines == nil:
			// Full size at first use: growing by append would allocate
			// twice the final size, in large objects, once per batch.
			b.arena, b.lines = make([]byte, 0, batchBytes), make([]scanned, 0, batchLines)
		}
		b.arena, b.lines = b.arena[:0], b.lines[:0]
		eof := false
		for len(b.lines) < batchLines && len(b.arena) < batchBytes {
			if len(b.lines) == firstBatchLines && cap(b.lines) == firstBatchLines {
				b.grow()
			}
			if !sc.Scan() {
				b.err, eof = sc.Err(), true
				break
			}
			b.add(sc.Bytes())
		}
		select {
		case full <- b:
		case <-done:
			return
		}
		if eof {
			return
		}
	}
}
