GO ?= go

.PHONY: build test race vet fmt-check bench bench-json bench-transport bench-obs bench-annotate bench-deploy bench-reopt bench-sample chaos chaos-failover chaos-reopt chaos-inspect chaos-sample soak check

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

# Chaos drill: kill / partition / flaky-link scenarios against a live
# cluster, under the race detector. The flaky-link test pins the fault
# seed (netsim.SetFaultSeed), so drops are reproducible across runs.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos' ./internal/core/

# Failover drill: mid-query node kills, slow (wedged-but-alive) nodes,
# suffix re-planning, and the mediator fallback, under the race detector
# (DESIGN.md "Mid-query failover").
chaos-failover:
	$(GO) test -race -count=1 -v -run 'TestFailover|TestChaosPartitionMidStream|TestTraceFailoverWellFormed' ./internal/core/

# Re-optimization drill: skewed statistics, threshold boundaries,
# cross-query stats feedback, and a node kill in the middle of a
# re-optimization, under the race detector (DESIGN.md "Adaptive
# mid-query re-optimization").
chaos-reopt:
	$(GO) test -race -count=1 -v -run 'TestReopt' ./internal/core/

# Introspection drill: live registry lifecycle, /debug/queries under a
# running query, implicit-edge flow feedback, EXPLAIN ANALYZE, and the
# registry-drain invariants across failover and cancellation, under the
# race detector (DESIGN.md "Flow accounting and live introspection").
chaos-inspect:
	$(GO) test -race -count=1 -v -run 'TestInflight|TestImplicitFlow|TestAnalyzeShows|TestChaosInflight|TestFlow|TestParseStreamRel|TestTransportByAddr' ./internal/core/ ./internal/wire/

# Sampling drill: probe bounds and filters at the engine, the stats RPC
# round-trip, probe-driven first-run planning, cross-query feedback,
# breaker skips, and degraded probes, under the race detector
# (DESIGN.md "Sampling-based estimate refinement").
chaos-sample:
	$(GO) test -race -count=1 -v -run 'TestSample' ./internal/core/ ./internal/engine/ ./internal/wire/

# Concurrency soak: burst admission, staggered mid-query cancellation,
# and drain-under-load against a live cluster, under the race detector.
soak:
	$(GO) test -race -count=1 -v -run 'TestSoak' ./internal/core/

# What CI's lint job gates on: no file gofmt would rewrite.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l reports:"; gofmt -l .; exit 1; }

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

# The consultation A/B: serial vs parallel annotation and cold vs warm
# consult cache at real network speed (EXPERIMENTS.md "Consultation
# latency").
bench-annotate:
	$(GO) test -run '^$$' -bench='BenchmarkAnnotate' -benchtime=50x -count=1 ./internal/core/

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
