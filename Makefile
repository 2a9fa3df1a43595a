GO ?= go

.PHONY: build test race vet fmt-check loc bench bench-json bench-transport bench-obs bench-deploy bench-reopt bench-sample chaos soak check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The transport and delegation layers carry the concurrency-sensitive
# code (connection pool checkout, parallel delegation, server-registration
# dedupe); run them under the race detector.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/wire/... ./internal/core/...

# Chaos drill, under the race detector: kill / partition / flaky-link
# scenarios against a live cluster (the flaky-link test pins the fault seed
# with netsim.SetFaultSeed, so drops are reproducible), mid-query failover
# and the mediator fallback, plan-cache lease lifecycle, re-optimization
# under skewed statistics, flow accounting and live introspection, and
# sampling probes — every recovery edge of the query lifecycle (DESIGN.md
# "Query lifecycle") plus its transition table.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestFailover|TestTraceFailoverWellFormed|TestLifecycle|TestPlanCache|TestReopt|TestInflight|TestImplicitFlow|TestAnalyzeShows|TestFlow|TestParseStreamRel|TestTransportByAddr|TestSample' ./internal/core/ ./internal/engine/ ./internal/wire/

# Concurrency soak: burst admission, staggered mid-query cancellation,
# and drain-under-load against a live cluster, under the race detector.
soak:
	$(GO) test -race -count=1 -v -run 'TestSoak' ./internal/core/

# What CI's lint job gates on: no file gofmt would rewrite.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l reports:"; gofmt -l .; exit 1; }

# Non-test, non-comment, non-blank Go lines per internal/ package and in
# total — the numbers a simplicity PR quotes before and after.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cvE '^\s*(//|$$)'); \
		printf '%6d %s\n' "$$n" "$$d"; total=$$((total + n)); \
	done; printf '%6d total\n' "$$total"

# The benchmark record: four workloads, end-to-end and per-layer metrics,
# every answer checked against the oracle (bench/README.md), then the diff
# against the committed baseline.
bench-json:
	$(GO) run ./bench -runs 3 -out bench/out/BENCH.json
	$(GO) run ./bench -diff bench/baseline/BENCH_12.json bench/out/BENCH.json

# Full experiment regeneration (slow; see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchtime=1x -timeout=2h .

# The pooled-vs-per-dial transport A/B (EXPERIMENTS.md "Wire transport").
bench-transport:
	$(GO) test -bench='BenchmarkProbe' -benchtime=2000x ./internal/wire/

# The tracing-overhead A/B: warm Q3 with the span tree off vs on
# (EXPERIMENTS.md "Observability overhead").
bench-obs:
	$(GO) test -bench='BenchmarkQueryTracing' -benchtime=200x -count=3 ./internal/core/

# The deployment A/B: drop-per-query vs warm plan-cache reuse of deployed
# views at real network speed (EXPERIMENTS.md "Deployment latency").
bench-deploy:
	$(GO) test -run '^$$' -bench='BenchmarkDeploy' -benchtime=50x -count=1 ./internal/core/

# The barrier-overhead A/B: the same join with re-optimization off vs on,
# accurate vs skewed statistics (EXPERIMENTS.md "Adaptive
# re-optimization").
bench-reopt:
	$(GO) test -run '^$$' -bench='BenchmarkReopt' -benchtime=100x -count=1 ./internal/core/

# The sampling A/B: the same join with probes off vs on, accurate vs
# skewed statistics (EXPERIMENTS.md "Sampling-based refinement").
bench-sample:
	$(GO) test -run '^$$' -bench='BenchmarkSample' -benchtime=100x -count=1 ./internal/core/

check: build vet fmt-check test
