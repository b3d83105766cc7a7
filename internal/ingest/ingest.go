// Package ingest is the streaming, template-compressed workload ingestion
// path: it scans SQL query logs (a reader, a file, or a directory of log
// files) in one pass, parses each statement against a schema, and folds
// duplicate queries into single weighted workload items keyed by
// workload.Query.FoldKey. Resident memory is O(distinct statements), not
// O(log lines) — the property that makes million-query logs tractable.
//
// Folding is exact, not approximate: FoldKey captures the full execution
// Spec (literals and selectivities included), and the workload package's
// two-phase frequency normalization makes a folded workload's FrozenVector
// bit-identical to the naive one-item-per-line workload's. Every ingestion
// consumer (the cliffguard CLI, serve.ParseWorkload, the cliffguardd
// workload endpoint) routes through this package, so the server-vs-library
// bit-identity guarantee is preserved by construction.
//
// The statement grammar is a superset of the cmd/wlgen log format:
//
//   - one statement per line, optionally prefixed by an RFC3339 timestamp
//     and a tab (the wlgen format), with or without a trailing ';'
//   - multi-line statements terminated by a line ending in ';'
//   - blank lines and '--' comments are skipped anywhere
//
// Multi-line statements require the ';' terminator; an unterminated
// accumulation (flushed by a blank line, a line that parses standalone, the
// statement-size cap, or EOF) reverts to line-oriented interpretation and
// each buffered line counts as one skipped statement, exactly as the legacy
// line-per-query parser would have counted it.
//
// Each reader streams through two stages. A scan goroutine reads the input
// straight into a batch arena, splits it into lines in place (as
// bufio.ScanLines would), and does only the stateless work for a line:
// trim, drop comments, mark blank lines, and split off the timestamp prefix
// (through a memo of the last accepted date). A batch holds up to 256 KiB
// or 2k lines, with offsets per line. The calling goroutine folds the batches in order and does all the stateful
// work itself: text-memo lookups, parsing, folding, ID allocation, the
// multi-line buffer, resync and skips. Because that work stays sequential
// and in line order, IDs, fold order, timestamps, Stats and error text are
// exactly those of a line-at-a-time reader (the package's tests keep one as
// the oracle). Batches are recycled through a free list local to the call,
// and the scan goroutine has exited before Reader, File or Dir returns.
//
// A line already in the text memo costs no allocation: it is probed as
// bytes in the arena. Strings are made only for a statement's first
// occurrence (parsed, then memoized) and for lines buffered into a
// multi-line statement.
package ingest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cliffguard/internal/obs"
	"cliffguard/internal/schema"
	"cliffguard/internal/sqlparse"
	"cliffguard/internal/workload"
)

// DefaultMaxStatementBytes caps one statement's text (and one line's length)
// when Options.MaxStatementBytes is zero. It matches the 1MiB scanner buffer
// the serving layer has always used, so a query that loads over HTTP also
// loads from a file. Under any cap, a trimmed line longer than the cap is
// one skipped statement, never parsed, and a multi-line statement whose
// buffered lines outgrow it is skipped line by line; a raw line longer than
// the larger of the cap and 64 KiB ends the read with an error.
const DefaultMaxStatementBytes = 1 << 20

// textMemoCap bounds the exact-text memo that lets repeated log lines skip
// the parser entirely. When full, new texts are still parsed and folded —
// only the parse shortcut stops growing, keeping the memo deterministic.
const textMemoCap = 1 << 16

// Options configures one ingestion pass.
type Options struct {
	// FirstID is the query ID assigned to the first statement attempt. IDs
	// advance by one per attempted statement (parsed or skipped), matching
	// the historical per-line numbering; a folded duplicate keeps the ID of
	// its first occurrence.
	FirstID int64
	// MaxStatementBytes caps one statement's byte length, and one line's
	// (0 means DefaultMaxStatementBytes).
	MaxStatementBytes int
	// NoFold disables duplicate folding: every parsed statement becomes its
	// own weight-1 item, in statement order, reproducing the legacy naive
	// workload exactly. The online observe stream, the equivalence tests and
	// the memory-comparison benches use it.
	NoFold bool
	// Metrics receives the ingest_* counters when non-nil.
	Metrics *obs.Metrics
}

func (o Options) maxBytes() int {
	if o.MaxStatementBytes <= 0 {
		return DefaultMaxStatementBytes
	}
	return o.MaxStatementBytes
}

// Stats summarizes one ingestion pass.
type Stats struct {
	// Streamed counts statements that parsed successfully, before folding:
	// the total weight added to the workload.
	Streamed int
	// Templates counts distinct folded items: the workload's length. With
	// NoFold it equals Streamed.
	Templates int
	// Skipped counts statements that failed to parse.
	Skipped int
}

// Attempts returns the number of statement attempts (IDs consumed):
// Streamed + Skipped.
func (st Stats) Attempts() int { return st.Streamed + st.Skipped }

// NoQueriesError reports an ingestion pass that produced an empty workload.
type NoQueriesError struct{ Skipped int }

func (e *NoQueriesError) Error() string {
	return fmt.Sprintf("ingest: no parseable queries (%d statements skipped)", e.Skipped)
}

// Reader streams one SQL log from r. See the package comment for the
// statement grammar.
func Reader(s *schema.Schema, r io.Reader, opts Options) (*workload.Workload, Stats, error) {
	f := newFolder(s, opts)
	if err := f.consume(r); err != nil {
		return nil, Stats{}, err
	}
	return f.finish()
}

// File streams one SQL log file.
func File(s *schema.Schema, path string, opts Options) (*workload.Workload, Stats, error) {
	rd, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("ingest: %w", err)
	}
	defer rd.Close()
	w, st, err := Reader(s, rd, opts)
	if err != nil {
		return nil, st, fmt.Errorf("ingest: %s: %w", path, err)
	}
	return w, st, nil
}

// Dir streams every regular, non-hidden file in dir (sorted by name) as one
// concatenated log: query IDs and folding run across file boundaries.
func Dir(s *schema.Schema, dir string, opts Options) (*workload.Workload, Stats, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("ingest: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, Stats{}, fmt.Errorf("ingest: no log files in %s", dir)
	}
	f := newFolder(s, opts)
	for _, name := range names {
		path := filepath.Join(dir, name)
		rd, err := os.Open(path)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("ingest: %w", err)
		}
		err = f.consume(rd)
		rd.Close()
		if err != nil {
			return nil, Stats{}, fmt.Errorf("ingest: %s: %w", path, err)
		}
	}
	return f.finish()
}

// Load ingests a workload directory in the schema.sql convention:
//
//	dir/schema.sql    CREATE TABLE statements (sqlparse.ParseSchema dialect)
//	dir/queries/      log files, ingested in sorted name order, or
//	dir/queries.sql   a single log file
//
// It returns the parsed schema alongside the folded workload.
func Load(dir string, opts Options) (*schema.Schema, *workload.Workload, Stats, error) {
	ddl, err := os.ReadFile(filepath.Join(dir, "schema.sql"))
	if err != nil {
		return nil, nil, Stats{}, fmt.Errorf("ingest: %w", err)
	}
	s, err := sqlparse.ParseSchema(string(ddl))
	if err != nil {
		return nil, nil, Stats{}, err
	}
	qdir := filepath.Join(dir, "queries")
	if fi, err := os.Stat(qdir); err == nil && fi.IsDir() {
		w, st, err := Dir(s, qdir, opts)
		return s, w, st, err
	}
	qfile := filepath.Join(dir, "queries.sql")
	if _, err := os.Stat(qfile); err != nil {
		return nil, nil, Stats{}, fmt.Errorf("ingest: %s has neither queries/ nor queries.sql", dir)
	}
	w, st, err := File(s, qfile, opts)
	return s, w, st, err
}

// IsWorkloadDir reports whether path is a directory in the Load layout
// (contains a schema.sql). The CLI uses it to pick between File and Load.
func IsWorkloadDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, "schema.sql"))
	return err == nil
}

// entry is one folded workload item under construction. The final Workload
// is assembled once, after streaming, so weights are never mutated behind a
// live frozen-vector cache.
type entry struct {
	q      *workload.Query
	weight float64
}

// folder is the streaming fold state shared across the readers of one pass.
type folder struct {
	parser *sqlparse.Parser
	opts   Options
	nextID int64

	entries []entry
	foldIdx map[string]int // Query.FoldKey -> entries index
	// textMemo short-circuits the parser for exact duplicate statement
	// texts: index into entries, or -1 for texts known not to parse.
	textMemo map[string]int
	key      []byte // adopt's FoldKey buffer, reused across statements

	stats Stats
}

func newFolder(s *schema.Schema, opts Options) *folder {
	f := &folder{
		parser: sqlparse.NewParser(s),
		opts:   opts,
		nextID: opts.FirstID,
	}
	if !opts.NoFold {
		f.foldIdx = make(map[string]int)
		f.textMemo = make(map[string]int)
	}
	return f
}

func (f *folder) allocID() int64 { id := f.nextID; f.nextID++; return id }

func (f *folder) memoize(text string, idx int) {
	if f.textMemo != nil && len(f.textMemo) < textMemoCap {
		f.textMemo[text] = idx
	}
}

// skip records one unparseable statement attempt (consuming its ID).
func (f *folder) skip() {
	f.allocID()
	f.stats.Skipped++
	if m := f.opts.Metrics; m != nil {
		m.IngestParseSkips.Inc()
	}
}

// adopt folds an already-parsed query into the entry set, consuming one ID.
// text is the statement's exact source (the memo key).
func (f *folder) adopt(q *workload.Query, text string, ts time.Time) {
	id := f.allocID()
	q.ID = id
	q.Timestamp = ts
	f.stats.Streamed++
	if m := f.opts.Metrics; m != nil {
		m.IngestQueriesStreamed.Inc()
	}
	if f.opts.NoFold {
		f.entries = append(f.entries, entry{q: q, weight: 1})
		return
	}
	f.key = q.AppendFoldKey(f.key[:0])
	if i, ok := f.foldIdx[string(f.key)]; ok {
		f.entries[i].weight++
		f.memoize(text, i)
		if m := f.opts.Metrics; m != nil {
			m.IngestTemplatesCompressed.Inc()
		}
		return
	}
	i := len(f.entries)
	f.entries = append(f.entries, entry{q: q, weight: 1})
	f.foldIdx[string(f.key)] = i
	f.memoize(text, i)
}

// memoGood reports whether text is memoized as a parseable statement, and
// which entry it folds into. Bad-text memo hits are not reported: only
// attempt (which knows the text is a complete statement) may act on them —
// a probe seeing a previously-failed line must still treat it as a possible
// multi-line statement head. The string(text) map key does not allocate.
func (f *folder) memoGood(text []byte) (int, bool) {
	i, ok := f.textMemo[string(text)]
	return i, ok && i >= 0
}

// foldHit folds one more occurrence into an existing entry, consuming an ID.
func (f *folder) foldHit(i int) {
	f.allocID()
	f.entries[i].weight++
	f.stats.Streamed++
	if m := f.opts.Metrics; m != nil {
		m.IngestQueriesStreamed.Inc()
		m.IngestTemplatesCompressed.Inc()
	}
}

// attempt parses one complete statement text, folding or skipping it. Only
// a memo miss copies text into a string.
func (f *folder) attempt(text []byte, ts time.Time) {
	if i, ok := f.textMemo[string(text)]; ok {
		if i < 0 {
			f.skip()
		} else {
			f.foldHit(i)
		}
		return
	}
	s := string(text)
	q, err := f.parser.Parse(s)
	if err != nil {
		f.memoizeBad(s)
		f.skip()
		return
	}
	f.adopt(q, s, ts)
}

func (f *folder) memoizeBad(text string) {
	if f.textMemo != nil && len(f.textMemo) < textMemoCap {
		f.textMemo[text] = -1
	}
}

// consume streams one reader through the two-stage pipeline: scanLines
// trims, drops comments and splits timestamps on its own goroutine, and
// this goroutine folds the batches in order (see the package comment). The
// scan goroutine has exited by the time consume returns.
func (f *folder) consume(r io.Reader) error {
	full := make(chan *batch, pipelineBatches)
	free := make(chan *batch, pipelineBatches)
	for i := 0; i < pipelineBatches; i++ {
		free <- &batch{}
	}
	done := make(chan struct{})
	go scanLines(r, f.opts.maxBytes(), full, free, done)
	// On every return, panics included, stop the scan goroutine and wait for
	// it to close full: the caller may close r as soon as consume returns.
	defer func() {
		close(done)
		for range full {
		}
	}()

	var p pending
	for b := range full {
		for _, l := range b.lines {
			f.line(&p, b.arena, l)
		}
		if b.err != nil {
			return fmt.Errorf("ingest: reading workload: %w", b.err)
		}
		free <- b
	}
	f.flushAsSkips(&p)
	return nil
}

// pending is the fold stage's scanner state: the unterminated multi-line
// statement being accumulated, empty between statements.
type pending struct {
	lines []string
	ts    time.Time
	bytes int
}

// flushAsSkips abandons the pending buffer: no terminator appeared, so each
// buffered line is retroactively one failed line-oriented attempt.
func (f *folder) flushAsSkips(p *pending) {
	for range p.lines {
		f.skip()
	}
	p.lines, p.bytes = nil, 0
}

var semicolon = []byte(";")

// line folds one scanned line. It allocates only for a statement's first
// occurrence (parsed and memoized) and for multi-line buffering: a line
// already in the text memo is probed straight from the batch arena.
func (f *folder) line(p *pending, arena []byte, l scanned) {
	text := arena[l.start:l.end]
	if len(text) == 0 {
		f.flushAsSkips(p)
		return
	}
	if len(text) > f.opts.maxBytes() {
		// Over the statement cap: one skipped statement, never parsed, that
		// also abandons any statement being accumulated.
		f.flushAsSkips(p)
		f.skip()
		return
	}
	sql := arena[l.sql:l.end]
	if len(p.lines) == 0 {
		if body, ok := bytes.CutSuffix(sql, semicolon); ok {
			f.attempt(bytes.TrimSpace(body), l.ts)
			return
		}
		// Single-line compatibility probe: the wlgen format has no
		// terminators, so a line that parses on its own is a statement.
		if i, ok := f.memoGood(sql); ok {
			f.foldHit(i)
			return
		}
		s := string(sql)
		if q, err := f.parser.Parse(s); err == nil {
			f.adopt(q, s, l.ts)
			return
		}
		// Not standalone-parseable: begin a multi-line accumulation.
		p.lines = append(p.lines, s)
		p.ts = l.ts
		p.bytes = len(s)
		return
	}
	// Accumulating: a ';' line completes the statement.
	if body, ok := bytes.CutSuffix(text, semicolon); ok {
		buffered := append(p.lines, string(bytes.TrimSpace(body)))
		p.lines, p.bytes = nil, 0
		joined := strings.TrimSpace(strings.Join(buffered, "\n"))
		if i, ok := f.textMemo[joined]; ok && i >= 0 {
			f.foldHit(i)
			return
		}
		if q, err := f.parser.Parse(joined); err == nil {
			f.adopt(q, joined, p.ts)
			return
		}
		f.memoizeBad(joined)
		// The joined text is not a statement: revert to line-oriented
		// interpretation so a garbage head can't swallow a parseable
		// terminator line. The accumulated lines each failed their
		// standalone probes (skips); the terminator line gets its own
		// attempt.
		for range buffered[:len(buffered)-1] {
			f.skip()
		}
		f.attempt(bytes.TrimSpace(bytes.TrimSuffix(sql, semicolon)), l.ts)
		return
	}
	// Resync probe: a line that parses standalone means the pending buffer
	// was garbage, not the head of a multi-line statement — flush it as
	// per-line skips so one bad line can't swallow the rest of a
	// terminator-less log.
	if i, ok := f.memoGood(sql); ok {
		f.flushAsSkips(p)
		f.foldHit(i)
		return
	}
	// One copy serves both uses: the probe parses the statement after the
	// timestamp, but a continuation line is buffered whole.
	whole := string(text)
	s := whole[l.sql-l.start:]
	if q, err := f.parser.Parse(s); err == nil {
		f.flushAsSkips(p)
		f.adopt(q, s, l.ts)
		return
	}
	p.lines = append(p.lines, whole)
	p.bytes += len(whole) + 1
	if p.bytes > f.opts.maxBytes() {
		f.flushAsSkips(p)
	}
}

// finish assembles the folded workload and final stats.
func (f *folder) finish() (*workload.Workload, Stats, error) {
	f.stats.Templates = len(f.entries)
	if len(f.entries) == 0 {
		return nil, f.stats, &NoQueriesError{Skipped: f.stats.Skipped}
	}
	w := &workload.Workload{}
	for _, e := range f.entries {
		w.Add(e.q, e.weight)
	}
	return w, f.stats, nil
}
