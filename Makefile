GO ?= go

.PHONY: ci vet build test race fuzz-smoke bench apidiff api-baseline report-check bench-smoke bench-sampler bench-eval bench-portfolio bench-scale bench-online serve-smoke

# The full local gate: what should pass before every commit.
ci: vet build race fuzz-smoke apidiff report-check serve-smoke bench-smoke bench-sampler bench-eval bench-portfolio bench-scale bench-online

# Fail on incompatible changes to the public cliffguard package (removed or
# altered exported declarations vs api/cliffguard.api). Intentional breaks:
# update the baseline with 'make api-baseline' and call the break out in the
# PR description, or skip one run with APIDIFF=off.
apidiff:
	APIDIFF=$${APIDIFF:-on} sh tools/apidiff.sh

# Accept the current exported surfaces (Go package + /v1 HTTP route table)
# as the new baselines.
api-baseline:
	LC_ALL=C $(GO) run ./tools/apicheck . > api/cliffguard.api
	LC_ALL=C $(GO) run ./tools/apicheck -routes > api/http.api
	@echo "api/cliffguard.api + api/http.api refreshed; commit them together with the API change"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector; the engine cost models are shared
# across CliffGuard's parallel neighborhood evaluation, so -race is the gate
# that matters.
race:
	$(GO) test -race ./...

# Short fuzz of the SQL parser, ingest's statement splitting (pipelined
# reader vs the line-at-a-time reference), the JSONL stream decoders, and the
# ILP solver's brute-force cross-check, on top of the checked-in corpora (go's
# -fuzz takes one target per invocation).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparse/
	$(GO) test -fuzz=FuzzReader -fuzztime=10s ./internal/ingest/
	$(GO) test -fuzz=FuzzDecodeJSONL -fuzztime=5s ./internal/obs/
	$(GO) test -fuzz=FuzzDecodeSpans -fuzztime=5s ./internal/obs/
	$(GO) test -fuzz=FuzzILPSolve -fuzztime=5s ./internal/ilp/

# Regression-lock the run-analysis math: the golden event stream must
# summarize to exactly the checked-in expected summary. After an intentional
# event-taxonomy or report change, regenerate with
# 'go test ./internal/report/ -run TestGoldenFixture -update'.
report-check:
	$(GO) run ./cmd/cliffreport check \
		-expect internal/report/testdata/expected_summary.json \
		-spans internal/report/testdata/golden_spans.jsonl \
		internal/report/testdata/golden_events.jsonl

# Gate the benchmark trajectory: re-run the T1 drift-statistics experiment
# and require its values to match the checked-in benchmarks/BENCH_T1.json
# baseline (values are seed-deterministic; wall_ms is informational).
bench-smoke:
	@mkdir -p /tmp/cliffguard-bench-smoke
	$(GO) run ./cmd/benchrunner -experiment T1 -bench-json /tmp/cliffguard-bench-smoke > /dev/null
	$(GO) run ./cmd/cliffreport bench -against benchmarks /tmp/cliffguard-bench-smoke/BENCH_T1.json

# Gate the sampler fast path: re-run the SAMPLER experiment (closed-form
# landing vs legacy verify/bisect at parallelism 1) and require its
# deterministic counters and landing error to match the checked-in
# benchmarks/BENCH_SAMPLER.json (wall-clock speedup is informational).
bench-sampler:
	@mkdir -p /tmp/cliffguard-bench-sampler
	$(GO) run ./cmd/benchrunner -experiment SAMPLER -bench-json /tmp/cliffguard-bench-sampler > /dev/null
	$(GO) run ./cmd/cliffreport bench -against benchmarks /tmp/cliffguard-bench-sampler/BENCH_SAMPLER.json

# Gate the incremental-evaluation fast path: re-run the EVAL experiment (the
# unit-cost memo and pass replay vs DisableEvalFastPath at parallelism 1) and
# require its deterministic cost-model-call counters and equivalence bits to
# match the checked-in benchmarks/BENCH_EVAL.json (wall-clock speedup is
# informational).
bench-eval:
	@mkdir -p /tmp/cliffguard-bench-eval
	$(GO) run ./cmd/benchrunner -experiment EVAL -bench-json /tmp/cliffguard-bench-eval > /dev/null
	$(GO) run ./cmd/cliffreport bench -against benchmarks /tmp/cliffguard-bench-eval/BENCH_EVAL.json

# Gate the designer portfolio: re-run the PORTFOLIO experiment (advisor vs
# AutoAdmin vs ILP-exact raced by the portfolio runner) and require its
# deterministic member costs, the portfolio<=best-member bit, the p=1 vs
# NumCPU equivalence bit, and the ILP exactness certificate to match the
# checked-in benchmarks/BENCH_PORTFOLIO.json (wall-clock overhead is
# informational).
bench-portfolio:
	@mkdir -p /tmp/cliffguard-bench-portfolio
	$(GO) run ./cmd/benchrunner -experiment PORTFOLIO -bench-json /tmp/cliffguard-bench-portfolio > /dev/null
	$(GO) run ./cmd/cliffreport bench -against benchmarks /tmp/cliffguard-bench-portfolio/BENCH_PORTFOLIO.json

# Gate million-query scale: re-run the SCALE experiment (a 1M-statement log
# streamed through the template-compressing ingestion, then the same
# fixed-seed robust design under the pooled evaluator and the shard-fanout
# evaluator at 1/2/4 shards) and require its deterministic compression
# counters, the fold-identity bit, and the shard-equivalence bits to match
# the checked-in benchmarks/BENCH_SCALE.json (ingest/design wall-clock and
# memory are informational).
bench-scale:
	@mkdir -p /tmp/cliffguard-bench-scale
	$(GO) run ./cmd/benchrunner -experiment SCALE -bench-json /tmp/cliffguard-bench-scale > /dev/null
	$(GO) run ./cmd/cliffreport bench -against benchmarks /tmp/cliffguard-bench-scale/BENCH_SCALE.json

# Gate online mode: re-run the ONLINE experiment (a drift replay through the
# sliding-window controller, warm vs cold; a repeat-window warm re-design
# that must publish a bit-identical design with >= 5x fewer cost-model calls
# than the cold run; and an injected-regression probe the safety rule must
# reject) and require its deterministic counters and bits to match the
# checked-in benchmarks/BENCH_ONLINE.json (wall-clock is informational).
bench-online:
	@mkdir -p /tmp/cliffguard-bench-online
	$(GO) run ./cmd/benchrunner -experiment ONLINE -bench-json /tmp/cliffguard-bench-online > /dev/null
	$(GO) run ./cmd/cliffreport bench -against benchmarks /tmp/cliffguard-bench-online/BENCH_ONLINE.json

# Boot the real cliffguardd binary on a random port and drive the /v1 API
# end to end: tenant create -> workload -> submit -> poll -> design/trace/
# report, golden-compared against the in-process library path; cross-tenant
# shared-cache hits via /v1/statez; SIGTERM drain exits 0 with event streams
# flushed.
serve-smoke:
	$(GO) run ./tools/servesmoke

# Parallel neighborhood-evaluation benchmarks (cold and warm cache).
bench:
	$(GO) test ./internal/bench/ -run '^$$' -bench BenchmarkNeighborhoodEval -benchmem
