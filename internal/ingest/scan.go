package ingest

import (
	"bufio"
	"bytes"
	"io"
	"time"
)

// Scan-stage sizing. A batch closes at batchLines lines or once its arena of
// batchBytes is full, whichever comes first, so one batch stays a few
// hundred KiB however long the lines are (an over-long line still fits: the
// arena grows to hold it). pipelineBatches batches circulate between the two
// stages: one filling, one folding, two in flight.
//
// A call starts small, so a one-line body does not pay for buffers it never
// fills: the first batch starts with firstBatchBytes of arena and
// firstBatchLines lines, and moves to full-size buffers once it fills
// either. Later batches start at full size.
//
// scanLineFloor keeps the line cap of the bufio.Scanner the stage used to
// run on: a raw line (terminator excluded) fails with bufio.ErrTooLong once
// it reaches the larger of scanLineFloor and the statement cap.
const (
	batchLines      = 2048
	batchBytes      = 256 << 10
	pipelineBatches = 4

	scanLineFloor   = 64 << 10
	firstBatchBytes = 4 << 10
	firstBatchLines = 32

	// maxEmptyReads is bufio.Scanner's limit on consecutive (0, nil) reads
	// before it gives up with io.ErrNoProgress.
	maxEmptyReads = 100
)

// scanned is one trimmed, non-comment log line inside its batch's arena.
type scanned struct {
	start, end int       // arena[start:end] is the trimmed line; empty is a blank line
	sql        int       // arena[sql:end] is the statement after any timestamp prefix
	ts         time.Time // the prefix's timestamp (zero without one)
}

// batch carries consecutive scanned lines from the scan stage to the fold
// stage. The arena holds the input bytes as read and lines index into it.
// err, when set, is the read's terminal error and follows the last line of
// the batch.
type batch struct {
	arena []byte
	lines []scanned
	err   error
}

// add records the raw line arena[start:end] (its '\n' excluded): the
// stateless half of the statement grammar (trim, comment drop, timestamp
// split). Trimming also drops the '\r' of a CRLF ending. Comment lines
// change no fold state, so they never reach the fold stage.
func (b *batch) add(start, end int, day *dayMemo) {
	raw := b.arena[start:end]
	text := bytes.TrimSpace(raw)
	if len(text) == 0 {
		b.lines = append(b.lines, scanned{start: start, end: start, sql: start})
		return
	}
	if bytes.HasPrefix(text, commentPrefix) {
		return
	}
	// text is a subslice of raw, so the capacities give its offset.
	start += cap(raw) - cap(text)
	l := scanned{start: start, end: start + len(text), sql: start}
	if i := bytes.IndexByte(text, '\t'); i > 0 {
		if ts, ok := day.parse(text[:i]); ok {
			l.ts, l.sql = ts, start+i+1
		}
	}
	b.lines = append(b.lines, l)
}

// grow gives the batch at least arenaCap of arena and full-size lines. A
// small first batch moves to full size once it fills either, so the body is
// more than a few lines and growing by append would only copy it repeatedly
// on the way; a full-size arena doubles for a line longer than it.
func (b *batch) grow(arenaCap int) {
	if cap(b.arena) < arenaCap {
		arena := make([]byte, len(b.arena), arenaCap)
		copy(arena, b.arena)
		b.arena = arena
	}
	if cap(b.lines) < batchLines {
		lines := make([]scanned, len(b.lines), batchLines)
		copy(lines, b.lines)
		b.lines = lines
	}
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

// dayMemo is one scan stage's memo of the last date parseTimestamp
// accepted: the prefix's "YYYY-MM-DD" and that date's Unix midnight (UTC).
// A log's consecutive lines mostly share a date, so most prefixes are a
// plain "YYYY-MM-DDTHH:MM:SSZ" on the memoized date, and parse converts
// those without calling time.Parse. The zero memo matches no prefix.
type dayMemo struct {
	date     [10]byte
	midnight int64
	ok       bool
}

// parse is parseTimestamp with the memo in front: the same acceptance and
// a result == to time.Parse(time.RFC3339, ...)'s. The fast path takes only
// the exact "YYYY-MM-DDTHH:MM:SSZ" form on the memoized date with clock
// fields in range (hour <= 23, minute and second <= 59), which time.Parse
// accepts as time.Date(y, m, d, hh, mm, ss, 0, time.UTC): the same instant,
// in UTC, as time.Unix(midnight+hh*3600+mm*60+ss, 0).UTC(). Anything else
// goes to parseTimestamp, and an accepted prefix re-primes the memo.
func (m *dayMemo) parse(b []byte) (time.Time, bool) {
	if m.ok && len(b) == len("2006-01-02T15:04:05Z") && string(b[:10]) == string(m.date[:]) &&
		b[10] == 'T' && b[13] == ':' && b[16] == ':' && b[19] == 'Z' {
		h, okH := twoDigits(b[11], b[12])
		mi, okM := twoDigits(b[14], b[15])
		s, okS := twoDigits(b[17], b[18])
		if okH && okM && okS && h <= 23 && mi <= 59 && s <= 59 {
			return time.Unix(m.midnight+int64(h*3600+mi*60+s), 0).UTC(), true
		}
	}
	ts, ok := parseTimestamp(b)
	if ok {
		m.prime(b[:10])
	}
	return ts, ok
}

// prime memoizes date, the "YYYY-MM-DD" head of a prefix time.Parse
// accepted: RFC3339 requires exactly that form there, with a valid date.
func (m *dayMemo) prime(date []byte) {
	y1, ok1 := twoDigits(date[0], date[1])
	y2, ok2 := twoDigits(date[2], date[3])
	mo, ok3 := twoDigits(date[5], date[6])
	d, ok4 := twoDigits(date[8], date[9])
	if !(ok1 && ok2 && ok3 && ok4) {
		m.ok = false
		return
	}
	m.midnight = time.Date(y1*100+y2, time.Month(mo), d, 0, 0, 0, 0, time.UTC).Unix()
	copy(m.date[:], date)
	m.ok = true
}

// twoDigits decodes two ASCII decimal digits.
func twoDigits(hi, lo byte) (int, bool) {
	h, l := hi-'0', lo-'0'
	return int(h)*10 + int(l), h <= 9 && l <= 9
}

// readSome is one bufio.Scanner refill: it reads into p until bytes or an
// error arrive. A count outside [0, len(p)] is bufio.ErrBadReadCount (its
// bytes dropped), and maxEmptyReads+1 empty reads in a row io.ErrNoProgress.
func readSome(r io.Reader, p []byte) (int, error) {
	for empties := 0; ; {
		n, err := r.Read(p)
		if n < 0 || n > len(p) {
			return 0, bufio.ErrBadReadCount
		}
		if n > 0 || err != nil {
			return n, err
		}
		if empties++; empties > maxEmptyReads {
			return 0, io.ErrNoProgress
		}
	}
}

// scanLines is the scan stage: it reads r straight into batch arenas,
// splits and scans the lines in place, and sends full batches, in order, on
// full, taking empty ones from free. It closes full when r is exhausted or
// fails (the last batch then carries the error), or as soon as done is
// closed.
//
// Line splitting is bufio.ScanLines' under a bufio.Scanner with a line cap
// of max(maxBytes, scanLineFloor): lines end at '\n' (add's trim drops a
// '\r' before it), an unterminated last line is a line, the lines read
// before a read error are scanned and then the error is returned (io.EOF
// ends the read cleanly), and an unterminated line reaching the cap is
// bufio.ErrTooLong. Reads stop at the cap past the current line's start, so
// a line with a terminator beyond the cap fails as the scanner's did.
func scanLines(r io.Reader, maxBytes int, full chan<- *batch, free <-chan *batch, done <-chan struct{}) {
	defer close(full)
	limit := max(maxBytes, scanLineFloor)
	var (
		day   dayMemo
		carry []byte // the previous batch's unscanned tail, at least a partial line
		rerr  error  // the read's terminal error, io.EOF included
	)
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
		// carry may alias this arena's tail (a batch can come back at
		// once); append copies with memmove semantics.
		b.arena, b.lines = append(b.arena[:0], carry...), b.lines[:0]
		carry = nil
		eof := false
		// pos is where the unterminated line starts, next where the search
		// for its '\n' resumes.
		for pos, next := 0, 0; ; {
			if i := bytes.IndexByte(b.arena[next:], '\n'); i >= 0 {
				b.add(pos, next+i, &day)
				pos, next = next+i+1, next+i+1
				if len(b.lines) == cap(b.lines) {
					if cap(b.lines) == batchLines {
						carry = b.arena[pos:]
						break
					}
					b.grow(batchBytes)
				}
				continue
			}
			next = len(b.arena)
			if rerr != nil {
				if pos < len(b.arena) {
					b.add(pos, len(b.arena), &day)
				}
				if rerr != io.EOF {
					b.err = rerr
				}
				eof = true
				break
			}
			room := min(cap(b.arena), pos+limit) - len(b.arena)
			if room == 0 {
				switch {
				case len(b.arena)-pos == limit:
					b.err, eof = bufio.ErrTooLong, true
				case pos > 0 && cap(b.arena) >= batchBytes:
					carry = b.arena[pos:]
				default:
					b.grow(max(batchBytes, 2*cap(b.arena)))
					continue
				}
				break
			}
			n, err := readSome(r, b.arena[len(b.arena):len(b.arena)+room])
			b.arena, rerr = b.arena[:len(b.arena)+n], err
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
