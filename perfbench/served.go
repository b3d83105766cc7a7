package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/serve"
)

// served-mix shape: runs in servesmoke's shape at Parallelism 1; the server
// gets its concurrency from nproc workers under nproc closed-loop clients.
const (
	servedSamples    = 8
	servedIterations = 3
	servedPoll       = 5 * time.Millisecond
	servedTimeout    = 60 * time.Second
	// servedSetupReps fresh servers are timed to their first completed job
	// before the warm-up cycle, again before the measured cycles and again
	// after them, so the set-up median samples the host over the whole run.
	// The first job is job 0's engine and month with loop seed seed+r for
	// the r-th set-up: how much work one run does depends on its seed, and
	// the median pools many seeds.
	servedSetupReps = 5
)

// Job k runs engine k%2 on month (k/2)%12 with loop seed seed+k%3. All
// three are functions of k%24, so the job sequence repeats every 24 jobs:
// each (engine, month) always runs with the same seed, and every later
// cycle replays the first cycle's 24 (engine, month, seed) triples exactly.
// The shared memo answers the replays' lookups. The seed offsets vary the
// loop seed across the jobs of a cycle, never across cycles.
const (
	servedCycle = 2 * batchPairs
	servedSeeds = 3
)

// job is one (engine, month, seed) triple.
type job struct {
	kind  string
	month int
	seed  int64
	gamma float64
}

func jobFor(seed int64, k int) job {
	j := job{kind: engine.KindVertica, month: (k / 2) % batchPairs, seed: seed + int64(k%servedSeeds), gamma: 0.002}
	if k%2 == 1 {
		j.kind, j.gamma = engine.KindRowStore, 0.0008
	}
	return j
}

func (j job) request() serve.RunRequest {
	return serve.RunRequest{Gamma: j.gamma, Samples: servedSamples, Iterations: servedIterations, Seed: j.seed, Parallelism: 1}
}

// routes names the client-side timings of each /v1 call a job makes.
var routes = []string{"tenant_create", "workload_post", "run_submit", "run_poll", "run_spans", "run_design", "run_report", "tenant_delete"}

// jobResult is what one finished job reports back.
type jobResult struct {
	k           int
	job         job
	latency     time.Duration // POST runs sent -> end of the run's "run" span
	queueWait   time.Duration
	runSpan     time.Duration
	designerDur time.Duration
	designers   int
	phases      map[string]float64
	polls       int
	spansEmpty  int
	fingerprint uint64
	routeMs     map[string][]float64
}

// client drives one server over loopback HTTP.
type client struct {
	base  string
	http  *http.Client
	logs  [][]byte // month logs, as POSTed
	seed  int64
	spans *spanLog
}

// call sends one request and decodes the success envelope's data into v
// (nil: discard). A non-2xx answer is an error.
func (c *client) call(res *jobResult, route string, parent int, method, path, ctype string, body []byte, v any) error {
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if res != nil {
		res.routeMs[route] = append(res.routeMs[route], ms(end.Sub(start)))
		c.spans.add(c.spans.id(), parent, route, start, end)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	switch v := v.(type) {
	case nil:
		return nil
	case *[]byte: // a raw stream, not an envelope
		*v = raw
		return nil
	}
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return json.Unmarshal(env.Data, v)
}

// run performs job j as the k-th job: create a tenant, POST one month as
// SQL, submit a run, poll it to the end, read its spans, design and report,
// delete the tenant.
func (c *client) run(k int, j job) (*jobResult, error) {
	res := &jobResult{k: k, job: j, routeMs: map[string][]float64{}}
	id := c.spans.id()
	begin := time.Now()
	tenant := fmt.Sprintf("j%d", k)
	spec, _ := json.Marshal(serve.TenantSpec{ID: tenant, Engine: serve.EngineSpecWire{Kind: j.kind}})
	if err := c.call(res, "tenant_create", id, "POST", "/v1/tenants", "application/json", spec, nil); err != nil {
		return nil, err
	}
	tpath := "/v1/tenants/" + tenant
	if err := c.call(res, "workload_post", id, "POST", tpath+"/workload", "text/plain", c.logs[j.month], nil); err != nil {
		return nil, err
	}
	body, _ := json.Marshal(j.request())
	submitted := time.Now()
	var info serve.RunInfo
	if err := c.call(res, "run_submit", id, "POST", tpath+"/runs", "application/json", body, &info); err != nil {
		return nil, err
	}
	rpath := tpath + "/runs/" + info.ID
	for {
		res.polls++
		if err := c.call(res, "run_poll", id, "GET", rpath, "", nil, &info); err != nil {
			return nil, err
		}
		if serve.RunStatus(info.Status).Terminal() {
			break
		}
		time.Sleep(servedPoll)
	}
	if info.Status != string(serve.StatusDone) {
		return nil, fmt.Errorf("run %s of job %d ended %s: %s", info.ID, k, info.Status, info.Error)
	}
	// The server reports a run done before its span stream is closed, so a
	// spans read right after can come back empty. Such reads are counted
	// (serve.spans_empty) and repeated at the poll cadence.
	for {
		var stream []byte
		if err := c.call(res, "run_spans", id, "GET", rpath+"/spans", "", nil, &stream); err != nil {
			return nil, err
		}
		err := res.readSpans(stream, submitted)
		if err == nil {
			break
		}
		if !errors.Is(err, errNoRunSpan) || res.spansEmpty >= int(servedTimeout/servedPoll) {
			return nil, fmt.Errorf("job %d spans: %w", k, err)
		}
		res.spansEmpty++
		time.Sleep(servedPoll)
	}
	var d serve.DesignInfo
	if err := c.call(res, "run_design", id, "GET", rpath+"/design", "", nil, &d); err != nil {
		return nil, err
	}
	res.fingerprint = fingerprint(d)
	if err := c.call(res, "run_report", id, "GET", rpath+"/report", "", nil, nil); err != nil {
		return nil, err
	}
	if err := c.call(res, "tenant_delete", id, "DELETE", tpath, "", nil, nil); err != nil {
		return nil, err
	}
	c.spans.add(id, 0, fmt.Sprintf("job k=%d %s month=%d seed=%d", k, j.kind, j.month, j.seed), begin, time.Now())
	return res, nil
}

var errNoRunSpan = errors.New("the span stream has no run span")

// readSpans takes the run's own timings from its span stream: the run span's
// end (the job latency ends there, so the poll cadence does not quantize
// it), the queue wait, the evaluation passes, and the designer time — the
// gap between each designer mark and the end of what preceded the call (the
// run's start for the initial design, the rank pass for a move; so a move's
// designer time includes MoveWorkload).
func (r *jobResult) readSpans(stream []byte, submitted time.Time) error {
	recs, err := obs.DecodeSpans(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	r.phases = map[string]float64{}
	var run *obs.SpanRecord
	rankEnd := map[int]time.Time{}
	for i := range recs {
		rec := &recs[i]
		switch {
		case rec.Kind == obs.SpanKindSpan && rec.Name == obs.SpanRun:
			run = rec
		case rec.Kind == obs.SpanKindSpan && rec.Name == obs.SpanQueueWait:
			r.queueWait = rec.End.Sub(rec.Start)
		case rec.Kind == obs.SpanKindSpan && strings.HasPrefix(rec.Name, obs.SpanPhasePrefix):
			ph := strings.TrimPrefix(rec.Name, obs.SpanPhasePrefix)
			r.phases[ph] += float64(rec.DurUs) / 1e3
			if ph == obs.PhaseRank {
				rankEnd[rec.Iteration] = rec.End
			}
		}
	}
	if run == nil {
		return errNoRunSpan
	}
	for _, rec := range recs {
		if rec.Kind != obs.SpanKindMark || !strings.HasPrefix(rec.Name, obs.MarkDesignerPrefix) {
			continue
		}
		from := run.Start
		if t, ok := rankEnd[rec.Iteration]; ok && rec.Iteration >= 0 {
			from = t
		}
		r.designerDur += rec.Start.Sub(from)
		r.designers++
	}
	r.runSpan = run.End.Sub(run.Start)
	r.latency = run.End.Sub(submitted)
	return nil
}

// servedStructure lets a served design be fingerprinted like a library one.
type servedStructure struct{ info serve.StructureInfo }

func (s servedStructure) Key() string      { return s.info.Key }
func (s servedStructure) SizeBytes() int64 { return s.info.SizeBytes }
func (s servedStructure) Describe() string { return s.info.Describe }

// fingerprint is designer.Design.Fingerprint of a served design: a hash of
// its structure keys and sizes.
func fingerprint(d serve.DesignInfo) uint64 {
	structures := make([]designer.Structure, 0, len(d.Structures))
	for _, s := range d.Structures {
		structures = append(structures, servedStructure{s})
	}
	return designer.NewDesign(structures...).Fingerprint()
}

// server is one in-process cliffguardd behind a loopback listener.
type server struct {
	srv *serve.Server
	cl  *client
}

func startServer(seed int64, logs [][]byte, spans *spanLog) (*server, error) {
	workers := runtime.NumCPU()
	srv := serve.NewServer(serve.Config{Workers: workers})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &server{srv: srv, cl: &client{
		base:  "http://" + srv.Addr(),
		http:  &http.Client{Timeout: servedTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
		logs:  logs,
		seed:  seed,
		spans: spans,
	}}, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), servedTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.cl.http.CloseIdleConnections()
	return err
}

// servedPass is one closed-loop phase against one server.
type servedPass struct {
	results []*jobResult
	wall    time.Duration
	// Server totals at the end of the pass: the shared memo's stats from
	// /v1/statez and the sampler draws from the server's metrics registry.
	shared serve.SharedCacheInfo
	draws  uint64
}

// loop runs nproc closed-loop clients from job index first. It issues
// whole job cycles, so every (engine, month) weighs the same in every run,
// until the deadline has passed (at least one cycle; a zero deadline runs
// exactly one).
func (s *server) loop(out *outcome, first int, deadline time.Time) *servedPass {
	clients := runtime.NumCPU()
	var mu sync.Mutex
	next, stopped := first, false
	draw := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (next > first && (next-first)%servedCycle == 0 && time.Now().After(deadline)) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	sp := &servedPass{}
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := draw()
				if !ok {
					return
				}
				r, err := s.cl.run(k, jobFor(s.cl.seed, k))
				mu.Lock()
				out.attempted++
				if err != nil {
					out.fail("job %d: %v", k, err)
				} else {
					sp.results = append(sp.results, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sp.wall = time.Since(begin)
	var st serve.StateInfo
	if err := s.cl.call(nil, "", 0, "GET", "/v1/statez", "", nil, &st); err != nil {
		out.fail("statez: %v", err)
	}
	sp.shared = st.SharedCache
	sp.draws = s.srv.Metrics().Snapshot().SamplerDraws
	sort.Slice(sp.results, func(i, j int) bool { return sp.results[i].k < sp.results[j].k })
	return sp
}

// checkRepeats requires every repeat of an (engine, month, seed) triple to
// return the same design, and returns the first result of each triple.
func checkRepeats(out *outcome, seen map[job]*jobResult, results []*jobResult) {
	for _, r := range results {
		if first, ok := seen[r.job]; !ok {
			seen[r.job] = r
		} else if first.fingerprint != r.fingerprint {
			out.fail("job %d: design %x differs from job %d's %x for the same (engine, month, seed)", r.k, r.fingerprint, first.k, first.fingerprint)
		}
	}
}

// score re-runs each distinct job through the library path — the served path
// is bit-identical to it at Parallelism 1 — checks that it returns the served
// design, and rates that design on the following month.
func (in *inputs) scoreServed(ctx context.Context, out *outcome, seen map[job]*jobResult, logs [][]byte) *nextWindow {
	nw := &nextWindow{}
	scorers := map[string]engine.Engine{}
	jobs := make([]*jobResult, 0, len(seen))
	for _, r := range seen {
		jobs = append(jobs, r)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].k < jobs[j].k })
	for _, r := range jobs {
		j := r.job
		eng, ok := scorers[j.kind]
		if !ok {
			var err error
			if eng, err = engine.Open(engine.Spec{Kind: j.kind, Schema: in.schema}); err != nil {
				out.fail("scoring engine: %v", err)
				return nw
			}
			scorers[j.kind] = eng
		}
		w, _, err := serve.ParseWorkload(in.schema, bytes.NewReader(logs[j.month]), 1)
		if err != nil {
			out.fail("job %d: parsing the month: %v", r.k, err)
			continue
		}
		h, err := serve.StartRun(ctx, serve.RunSpec{Engine: engine.Spec{Kind: j.kind}, Options: j.request().Options(), Workload: w})
		if err != nil {
			out.fail("job %d: library run: %v", r.k, err)
			continue
		}
		d, _, err := h.Await(ctx)
		if err != nil {
			out.fail("job %d: library run: %v", r.k, err)
			continue
		}
		if d.Fingerprint() != r.fingerprint {
			out.fail("job %d: served design differs from the library path's", r.k)
			continue
		}
		if err := nw.score(ctx, eng, in.set.Months[j.month+1], d); err != nil {
			out.fail("job %d next window: %v", r.k, err)
		}
	}
	return nw
}

func runServed(cfg config, in *inputs) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{}
	n := runtime.NumCPU()
	out.env.Parallelism, out.env.Workers, out.env.Clients = 1, n, n
	logs := make([][]byte, batchPairs)
	for m := range logs {
		logs[m] = in.monthLog(m)
	}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	seen := map[job]*jobResult{}

	if cfg.trace {
		ref, err := startServer(in.seed, logs, nil)
		if err != nil {
			return nil, err
		}
		checkRepeats(out, seen, ref.loop(out, 0, time.Time{}).results)
		rp := ref.loop(out, servedCycle, time.Now().Add(seconds/2))
		if err := ref.stop(); err != nil {
			out.fail("shutdown: %v", err)
		}
		checkRepeats(out, seen, rp.results)
		spans := newSpanLog()
		s, err := startServer(in.seed, logs, spans)
		if err != nil {
			return nil, err
		}
		warm := s.loop(out, 0, time.Time{})
		checkRepeats(out, seen, warm.results)
		before := memNow()
		tp := s.loop(out, servedCycle, time.Now().Add(seconds/2))
		out.setMem(before, len(tp.results))
		if err := s.stop(); err != nil {
			out.fail("shutdown: %v", err)
		}
		checkRepeats(out, seen, tp.results)
		nw := in.scoreServed(ctx, out, seen, logs)
		setServedLayers(out, warm, tp, rp, nw)
		out.spans = spans
		return out, nil
	}

	// Set-up: a fresh server to its first completed job, in three groups.
	// The last server of the first group is the one measured. Set-up jobs
	// other than job 0 are not scored: next_window_* weighs the job cycle.
	var setups []float64
	reps := 0
	setupGroup := func(keep bool) (*server, error) {
		var s *server
		for k := 0; k < servedSetupReps; k++ {
			begin := time.Now()
			var err error
			if s, err = startServer(in.seed, logs, nil); err != nil {
				return nil, err
			}
			out.attempted++
			r, err := s.cl.run(0, jobFor(in.seed+int64(reps), 0))
			if err != nil {
				out.fail("setup job: %v", err)
			} else {
				setups = append(setups, time.Since(begin).Seconds())
				if reps == 0 {
					checkRepeats(out, seen, []*jobResult{r})
				}
			}
			reps++
			if !keep || k < servedSetupReps-1 {
				if err := s.stop(); err != nil {
					out.fail("shutdown: %v", err)
				}
			}
		}
		return s, nil
	}
	s, err := setupGroup(true)
	if err != nil {
		return nil, err
	}
	// One job cycle fills the shared memo; the measured cycles after it
	// replay its (engine, month, seed) triples exactly, so they measure the
	// steady state of a long-running daemon whose shared memo answers every
	// lookup, not a cold/warm mix that would shift with how many cycles fit
	// in the run. The cold path, memo misses included, is timed by setup_s.
	warm := s.loop(out, 1, time.Time{})
	checkRepeats(out, seen, warm.results)
	if _, err := setupGroup(false); err != nil {
		return nil, err
	}
	sp := s.loop(out, 1+servedCycle, time.Now().Add(seconds))
	checkRepeats(out, seen, sp.results)
	if _, err := setupGroup(false); err != nil {
		return nil, err
	}
	nw := in.scoreServed(ctx, out, seen, logs)
	var lat []float64
	for _, r := range sp.results {
		lat = append(lat, ms(r.latency))
	}
	throughput := float64(len(sp.results)) / sp.wall.Seconds()

	// The live heap holds the server: its tenants' leftovers, flight
	// recorder and the shared memo. The inputs and job results go first.
	in.release()
	logs, s.cl.logs, sp, seen = nil, nil, nil, nil
	heap := liveHeapMB()
	if err := s.stop(); err != nil {
		out.fail("shutdown: %v", err)
	}
	out.setEndToEnd(setups, lat, throughput, nw.avgCost(), nw.maxCost(), heap)
	return out, nil
}

// setServedLayers reports the traced pass's per-layer metrics over its
// measured cycles, read from the client-side route timings, the runs' span
// streams, /v1/statez and the server's metrics registry. The server builds
// its engines and designers itself, so the loop's cost model, the engine
// memo and the run memo are not separable here and read zero.
func setServedLayers(out *outcome, warm, tp, rp *servedPass, nw *nextWindow) {
	routeMs := map[string][]float64{}
	var queue, runSpan, lat, refLat []float64
	designerMs := map[string]float64{}
	designerCalls := map[string]float64{}
	phases := map[string]float64{}
	var designMs float64
	polls, spansEmpty := 0, 0
	for _, r := range tp.results {
		for route, xs := range r.routeMs {
			routeMs[route] = append(routeMs[route], xs...)
		}
		queue = append(queue, ms(r.queueWait))
		runSpan = append(runSpan, ms(r.runSpan))
		lat = append(lat, ms(r.latency))
		designerMs[r.job.kind] += ms(r.designerDur)
		designerCalls[r.job.kind] += float64(r.designers)
		for ph, v := range r.phases {
			phases[ph] += v
		}
		designMs += ms(r.runSpan)
		polls += r.polls
		spansEmpty += r.spansEmpty
	}
	for _, r := range rp.results {
		refLat = append(refLat, ms(r.latency))
	}
	units := float64(len(tp.results))
	out.set("bench.units", units)
	for _, route := range routes {
		out.set("serve.route_ms."+route, median(routeMs[route]))
	}
	out.set("serve.queue_wait_ms", median(queue))
	out.set("serve.run_span_ms", median(runSpan))
	out.set("serve.shared.hits", float64(tp.shared.Hits-warm.shared.Hits))
	out.set("serve.shared.misses", float64(tp.shared.Misses-warm.shared.Misses))
	out.set("serve.shared.entries", float64(tp.shared.Entries))
	out.set("sample.draws", float64(tp.draws-warm.draws))
	out.set("serve.polls_per_job", float64(polls)/max(units, 1))
	out.set("serve.spans_empty", float64(spansEmpty))
	out.set("designer.vertica.calls", designerCalls[engine.KindVertica])
	out.set("designer.vertica.ms", designerMs[engine.KindVertica])
	out.set("designer.rowstore.calls", designerCalls[engine.KindRowStore])
	out.set("designer.rowstore.ms", designerMs[engine.KindRowStore])
	out.set("core.design_ms", designMs)
	out.set("core.self_ms", designMs-designerMs[engine.KindVertica]-designerMs[engine.KindRowStore])
	out.setPhases(phases)
	out.set("quality.uncostable", nw.uncostable)
	refP50 := median(refLat)
	if refP50 > 0 {
		out.set("trace.overhead_pct", (median(lat)/refP50-1)*100)
	}
}
