package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// The span side-channel. The canonical event stream is deterministic by
// contract: it carries no wall-clock time, so two runs with the same seed
// produce the same stream at any parallelism. Timing therefore lives in a
// second, explicitly non-deterministic JSONL stream written by SpanRecorder:
// wall-clock start/end pairs derived from the event stream's structure
// (iterations, evaluation phases), point-in-time marks, and a final metrics
// snapshot. Tools that need both (cmd/cliffreport) join the two streams;
// tools that need determinism (the golden-fixture gate) read only the first.

// Span record kinds (the "kind" field of the span stream).
const (
	// SpanKindSpan is a closed interval with start/end wall-clock times.
	SpanKindSpan = "span"
	// SpanKindMark is a single point in time (e.g. a designer invocation).
	SpanKindMark = "mark"
	// SpanKindMetrics carries the run's final metrics snapshot.
	SpanKindMetrics = "metrics"
)

// Span names written by SpanRecorder. Phase spans are "phase:" + the
// NeighborEvaluated phase (PhaseInitial, PhaseRank, PhaseCandidate).
const (
	// SpanRun covers the whole observed run: first event to Finish.
	SpanRun = "run"
	// SpanIteration covers one robust-loop iteration.
	SpanIteration = "iteration"
	// SpanPhasePrefix prefixes per-pass evaluation spans ("phase:rank", ...).
	SpanPhasePrefix = "phase:"
	// MarkDesignerPrefix prefixes designer-invocation marks.
	MarkDesignerPrefix = "designer:"
	// MarkNeighborhoodSampled marks the Gamma-neighborhood draw.
	MarkNeighborhoodSampled = "neighborhood_sampled"
	// SpanQueueWait covers admission-queue wait: run submission accepted to
	// worker-slot pickup. Written by the serving layer via RecordSpan, so a
	// run's span stream links the originating HTTP request to the run loop.
	SpanQueueWait = "queue_wait"
)

// SpanRecord is one line of the span stream.
type SpanRecord struct {
	Kind      string    `json:"kind"`
	Name      string    `json:"name,omitempty"`
	Iteration int       `json:"iteration"` // -1 when not iteration-scoped
	Start     time.Time `json:"start,omitempty"`
	End       time.Time `json:"end,omitempty"`
	// DurUs is End-Start in microseconds, precomputed for consumers.
	DurUs int64 `json:"dur_us,omitempty"`
	// Metrics is set on the final SpanKindMetrics record only.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
	// RequestID is the originating HTTP request ID, stamped on every record
	// once SetRequestID is called (empty for library runs). It lives only in
	// this side-channel; the canonical event stream never carries it.
	RequestID string `json:"request_id,omitempty"`
}

// SpanRecorder is an Observer that derives timestamped spans from the event
// stream and writes them as its own JSONL stream, leaving the canonical
// event stream timestamp-free. It serializes internally (NeighborEvaluated
// arrives from worker goroutines) and buffers writes; call Finish once the
// run is done.
//
// Derived records:
//
//   - one SpanIteration span per IterationStart/IterationEnd pair,
//   - one phase span per consecutive run of NeighborEvaluated events with
//     the same (iteration, phase) — the loop's barriers guarantee passes
//     never interleave, so arrival order inside a pass is irrelevant,
//   - marks for NeighborhoodSampled and each DesignerInvoked,
//   - a SpanRun span and an optional metrics snapshot, written by Finish.
type SpanRecorder struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	err    error
	opened bool

	runStart time.Time

	iterOpen  bool
	iterStart time.Time
	iterNum   int

	phaseOpen  bool
	phaseName  string
	phaseIter  int
	phaseStart time.Time
	phaseEnd   time.Time

	// requestID, when set, is stamped on every subsequent record.
	requestID string

	// now is swappable for tests.
	now func() time.Time
}

// NewSpanRecorder returns a recorder writing its span stream to w. The
// recorder buffers internally; call Finish before closing the file.
func NewSpanRecorder(w io.Writer) *SpanRecorder {
	bw := bufio.NewWriterSize(w, 64<<10)
	return &SpanRecorder{bw: bw, enc: json.NewEncoder(bw), now: time.Now}
}

// WithClock replaces the recorder's wall clock and returns the recorder. A
// nil clock pins every timestamp to the zero time, making span durations a
// pure function of the events — tests that gate wall-clock columns use this
// to keep two recordings bit-comparable. Set it before the first event.
func (r *SpanRecorder) WithClock(now func() time.Time) *SpanRecorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	r.now = now
	return r
}

// header writes the stream header and stamps the run start. Callers hold mu.
func (r *SpanRecorder) header(now time.Time) {
	if r.opened || r.err != nil {
		return
	}
	r.opened = true
	r.runStart = now
	r.err = r.enc.Encode(streamHeader{Schema: SchemaVersion, Stream: StreamSpans})
}

// write encodes one record. Callers hold mu.
func (r *SpanRecorder) write(rec SpanRecord) {
	if r.err != nil {
		return
	}
	if rec.RequestID == "" {
		rec.RequestID = r.requestID
	}
	r.err = r.enc.Encode(rec)
}

// SetRequestID stamps all subsequently written records with the originating
// HTTP request ID. Call it before the first event arrives; it is safe (but
// pointless) later, and a no-op for the records already written.
func (r *SpanRecorder) SetRequestID(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requestID = id
}

// RecordSpan writes an explicit closed span that was measured outside the
// event stream (e.g. the serving layer's admission-queue wait). It opens the
// stream if needed, so spans that precede the first event still land after
// the header.
func (r *SpanRecorder) RecordSpan(name string, iter int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.header(r.now())
	r.span(name, iter, start, end)
}

// span writes a closed span. Callers hold mu.
func (r *SpanRecorder) span(name string, iter int, start, end time.Time) {
	r.write(SpanRecord{
		Kind: SpanKindSpan, Name: name, Iteration: iter,
		Start: start, End: end, DurUs: end.Sub(start).Microseconds(),
	})
}

// closePhase flushes the open phase span, if any. Callers hold mu.
func (r *SpanRecorder) closePhase() {
	if !r.phaseOpen {
		return
	}
	r.phaseOpen = false
	r.span(SpanPhasePrefix+r.phaseName, r.phaseIter, r.phaseStart, r.phaseEnd)
}

// OnEvent implements Observer.
func (r *SpanRecorder) OnEvent(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.header(now)
	switch e := ev.(type) {
	case NeighborhoodSampled:
		r.write(SpanRecord{Kind: SpanKindMark, Name: MarkNeighborhoodSampled, Iteration: -1, Start: now})
	case DesignerInvoked:
		// The event fires after the black-box call returns, between
		// evaluation passes: close the pass that preceded it.
		r.closePhase()
		r.write(SpanRecord{Kind: SpanKindMark, Name: MarkDesignerPrefix + e.Designer, Iteration: e.Iteration, Start: now})
	case IterationStart:
		r.closePhase()
		r.iterOpen = true
		r.iterStart = now
		r.iterNum = e.Iteration
	case IterationEnd:
		r.closePhase()
		if r.iterOpen {
			r.iterOpen = false
			r.span(SpanIteration, e.Iteration, r.iterStart, now)
		}
	case NeighborEvaluated:
		if r.phaseOpen && (r.phaseName != e.Phase || r.phaseIter != e.Iteration) {
			r.closePhase()
		}
		if !r.phaseOpen {
			r.phaseOpen = true
			r.phaseName = e.Phase
			r.phaseIter = e.Iteration
			r.phaseStart = now
		}
		r.phaseEnd = now
	}
}

// Finish closes any open spans, writes the whole-run span, appends a metrics
// snapshot when m is non-nil (nil *Metrics is fine), flushes the buffer, and
// returns the first error the recorder saw.
func (r *SpanRecorder) Finish(m *Metrics) error {
	if m == nil {
		return r.FinishWith(nil)
	}
	snap := m.Snapshot()
	return r.FinishWith(&snap)
}

// FinishWith is Finish with the metrics record given as a snapshot already
// taken (nil writes none), such as one tenant's Metrics.TenantSnapshot.
func (r *SpanRecorder) FinishWith(snap *MetricsSnapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.header(now)
	r.closePhase()
	if r.iterOpen {
		r.iterOpen = false
		r.span(SpanIteration, r.iterNum, r.iterStart, now)
	}
	r.span(SpanRun, -1, r.runStart, now)
	if snap != nil {
		r.write(SpanRecord{Kind: SpanKindMetrics, Iteration: -1, Metrics: snap})
	}
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Err returns the first write error, if any.
func (r *SpanRecorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// DecodeSpans parses a span stream written by SpanRecorder. The leading
// schema header is validated like DecodeJSONL's (unknown versions error,
// a missing header is tolerated); unknown record kinds fail loudly.
func DecodeSpans(r io.Reader) ([]SpanRecord, error) {
	dec := json.NewDecoder(r)
	var out []SpanRecord
	record := 0
	for dec.More() {
		record++
		var raw struct {
			Schema int    `json:"schema"`
			Stream string `json:"stream"`
			SpanRecord
		}
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("obs: decoding span record %d: %w", len(out)+1, err)
		}
		if raw.Schema != 0 || raw.Stream != "" {
			if err := checkHeader(raw.Schema, raw.Stream, StreamSpans, record); err != nil {
				return nil, err
			}
			continue
		}
		switch raw.Kind {
		case SpanKindSpan, SpanKindMark, SpanKindMetrics:
		default:
			return nil, fmt.Errorf("obs: unknown span record kind %q at record %d", raw.Kind, len(out)+1)
		}
		out = append(out, raw.SpanRecord)
	}
	return out, nil
}
