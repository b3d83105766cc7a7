GO ?= go

.PHONY: ci vet build test race fuzz-smoke bench apidiff api-baseline report-check bench-gates serve-smoke

# The full local gate: what should pass before every commit.
ci: vet build race fuzz-smoke apidiff report-check serve-smoke bench-gates

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
# reader vs the line-at-a-time reference), the JSONL stream decoders, the
# ILP solver's brute-force cross-check, and the /v1 run-request decoder, on
# top of the checked-in corpora (go's -fuzz takes one target per invocation).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparse/
	$(GO) test -fuzz=FuzzReader -fuzztime=10s ./internal/ingest/
	$(GO) test -fuzz=FuzzDecodeJSONL -fuzztime=5s ./internal/obs/
	$(GO) test -fuzz=FuzzDecodeSpans -fuzztime=5s ./internal/obs/
	$(GO) test -fuzz=FuzzILPSolve -fuzztime=5s ./internal/ilp/
	$(GO) test -fuzz=FuzzRunRequest -fuzztime=5s ./internal/serve/

# Regression-lock the run-analysis math: the golden event stream must
# summarize to exactly the checked-in expected summary. After an intentional
# event-taxonomy or report change, regenerate with
# 'go test ./internal/report/ -run TestGoldenFixture -update'.
report-check:
	$(GO) run ./cmd/cliffreport check \
		-expect internal/report/testdata/expected_summary.json \
		-spans internal/report/testdata/golden_spans.jsonl \
		internal/report/testdata/golden_events.jsonl

# Gate the checked-in benchmarks/BENCH_*.json baselines: one benchrunner
# process re-runs the six gated experiments and one cliffreport call
# requires every deterministic value to match its baseline (wall-clock and
# memory sit in each file's informational block and are never gated):
#   T1        drift statistics of the generated workloads
#   SAMPLER   closed-form landing vs the legacy verify/bisect landing
#   EVAL      unit-cost memo and pass replay vs DisableEvalFastPath
#   PORTFOLIO advisor vs AutoAdmin vs ILP-exact raced by the portfolio
#   SCALE     a 1M-statement log through template-compressing ingestion,
#             then a robust design of the folded workload
#   ONLINE    drift replay warm vs cold, repeat-window and safety probes
bench-gates:
	@mkdir -p /tmp/cliffguard-bench-gates
	$(GO) run ./cmd/benchrunner -experiment T1,SAMPLER,EVAL,PORTFOLIO,SCALE,ONLINE -bench-json /tmp/cliffguard-bench-gates > /dev/null
	$(GO) run ./cmd/cliffreport bench -against benchmarks /tmp/cliffguard-bench-gates/BENCH_*.json

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
