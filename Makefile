GO ?= go

.PHONY: ci vet build test race allocs fuzz-smoke bench apidiff api-baseline report-check bench-gates serve-smoke

# The full local gate: what should pass before every commit.
ci: vet build race allocs fuzz-smoke apidiff report-check serve-smoke bench-gates

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

# go vet, plus a gofmt check: any file gofmt would rewrite fails the gate.
vet:
	@drift=$$(gofmt -l $$(find . -name '*.go' -not -path './.*')); \
	if [ -n "$$drift" ]; then echo "gofmt drift, run gofmt -w on:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...

# perfbench/ is a nested module (the end-to-end benchmark) that ./... does
# not reach: build and vet it here so an API change that breaks it fails CI.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

test:
	$(GO) test ./...

# The whole suite under the race detector; the engine cost models are shared
# across CliffGuard's parallel neighborhood evaluation, so -race is the gate
# that matters.
race:
	$(GO) test -race ./...

# The allocation gates of the sampler and both nominal designers, outside
# the race detector: under -race sync.Pool drops pooled scratch at random,
# so these tests skip themselves in the race run above.
allocs:
	$(GO) test -count=1 -run Allocations ./internal/sample/ ./internal/vertsim/ ./internal/rowsim/

# Short fuzz of the SQL parser, the schema DDL decoder, ingest's statement
# splitting (pipelined reader vs the line-at-a-time reference), the JSONL
# stream decoders, the ILP solver's brute-force cross-check, the pair-table
# designers (budget, Exact ILP vs brute force and the greedy designers, and
# the sparse table and search steps vs their dense references), both
# engines' vector kernels against Cost on fuzzed queries and designs, the
# scratch mutator and both engines' candidate generators against their
# reference copies (reference_test.go) on fuzzed R1 slices, the /v1
# run-request, online-spec and tenant-spec decoders, and the online observe
# stream, on top of the checked-in corpora (go's -fuzz takes one target per
# invocation, so a pattern that prefixes another target's name is anchored).
# One observe exec runs the whole HTTP handler and ingest pipeline, so the
# default 60 s minimization of each new interesting input would use up the
# whole smoke budget; that target caps minimization at 1 s.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/sqlparse/
	$(GO) test -fuzz=FuzzParseSchema -fuzztime=5s ./internal/sqlparse/
	$(GO) test -fuzz=FuzzReader -fuzztime=10s ./internal/ingest/
	$(GO) test -fuzz=FuzzDecodeJSONL -fuzztime=5s ./internal/obs/
	$(GO) test -fuzz=FuzzDecodeSpans -fuzztime=5s ./internal/obs/
	$(GO) test -fuzz=FuzzILPSolve -fuzztime=5s ./internal/ilp/
	$(GO) test -fuzz=FuzzPairTable -fuzztime=5s ./internal/portfolio/
	$(GO) test -fuzz=FuzzVectorKernel -fuzztime=5s ./internal/engine/
	$(GO) test -fuzz=FuzzMutantsMatchReference -fuzztime=5s ./internal/sample/
	$(GO) test -fuzz=FuzzCandidatesMatchReference -fuzztime=5s ./internal/vertsim/
	$(GO) test -fuzz=FuzzCandidatesMatchReference -fuzztime=5s ./internal/rowsim/
	$(GO) test -fuzz=FuzzRunRequest -fuzztime=5s ./internal/serve/
	$(GO) test -fuzz=FuzzOnlineSpec -fuzztime=5s ./internal/serve/
	$(GO) test -fuzz=FuzzTenantSpec -fuzztime=5s ./internal/serve/
	$(GO) test -fuzz=FuzzOnlineObserve -fuzztime=5s -fuzzminimizetime=1s ./internal/serve/

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
#   EVAL      indexed unit-cost vectors and pass replay vs the reference full pass
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

# Parallel neighborhood-evaluation benchmarks (cold and warm cache), then
# the vertsim what-if kernel: one Cost, then on both vertsim and rowsim the
# nominal designer's pair table, one nominal Design and one session's five
# calls (DesignRun) on R1's first month, then the sampler's Neighborhood
# draw and mutator, core's indexed pass over a run's universe, and ingest: a
# 1M-line timestamped log and the fixed cost of a one-line call.
bench:
	$(GO) test ./internal/bench/ -run '^$$' -bench BenchmarkNeighborhoodEval -benchmem
	$(GO) test ./internal/vertsim -run '^$$' -bench 'WhatIfCost|BuildPairTable|Design' -benchmem
	$(GO) test ./internal/rowsim -run '^$$' -bench 'BuildPairTable|Design' -benchmem
	$(GO) test ./internal/sample -run '^$$' -bench 'Neighborhood|Mutate' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench IndexedPass -benchmem
	$(GO) test ./internal/ingest -run '^$$' -bench 'Reader1M|ReaderOneLine' -benchmem
