GO ?= go

.PHONY: build test race vet fmt-check loc bench bench-json bench-sample chaos soak fuzz-smoke examples check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The transport, connector, delegation and engine layers carry the
# concurrency-sensitive code (connection pool checkout, calibration,
# concurrent candidate consultation, the per-node metadata, sampling, deploy
# and drop rounds, engines serving concurrent queries over a shared catalog
# and foreign-table cache, morsel exchanges), and the mediator and sclera
# baselines fan their metadata out over nodes through core; run them under
# the race detector. So are the pieces every one of those shares: obs
# (spans finished from concurrent goroutines, the metrics registry),
# netsim (one transfer ledger and one fault state for every client),
# sqltypes (Spares, documented safe for concurrent use) and planner (the
# catalog every concurrent query plans from and learns into). The engine
# runs at GOMAXPROCS 1 (its serial path), 2 and 4 (its morsel exchanges, whose
# workers recycle the statement's batch memory, with more workers than the
# CI box has cores).
race:
	$(GO) test -race ./internal/wire/... ./internal/core/... ./internal/planner/... ./internal/connector/... ./internal/mediator/... ./internal/sclera/... ./internal/obs/... ./internal/netsim/... ./internal/sqltypes/...
	$(GO) test -race -cpu 1,2,4 ./internal/engine/...

# Chaos drill, under the race detector: kill / partition / flaky-link
# scenarios against a live cluster (the flaky-link test pins the fault seed
# with netsim.SetFaultSeed, so drops are reproducible), mid-query failover
# and the mediator fallback, plan-cache lease lifecycle and freshness,
# consult-cache freshness (TTL, breaker, calibration), flow accounting
# and live introspection, estimate correction under skewed statistics
# (sampling probes, drained edges teaching the next query, and the
# TPC-H skew cases of EXPERIMENTS.md), and the per-query record read back
# from every surface (slow-query log, /debug/queries, EXPLAIN ANALYZE,
# the metrics it feeds) on six lifecycle paths — every recovery edge of
# the query lifecycle (DESIGN.md "Query lifecycle") plus its transition
# table.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestFailover|TestTraceFailoverWellFormed|TestLifecycle|TestPlanCache|TestConsultCache|TestLearn|TestDrainedEdge|TestInflight|TestImplicitFlow|TestAnalyzeShows|TestFlow|TestParseStreamRel|TestTransportByAddr|TestSample|TestSkewCorrection|TestRecord|TestSlowQuery' ./internal/core/ ./internal/engine/ ./internal/wire/ ./internal/experiments/

# Concurrency soak: burst admission, staggered mid-query cancellation,
# and drain-under-load against a live cluster, under the race detector.
soak:
	$(GO) test -race -count=1 -v -run 'TestSoak' ./internal/core/

# Every walkthrough under examples/, built once and run end to end: each
# must exit 0 within 120 s (about 13 s for all ten on a 2-core box). CI's
# test job runs it after `make check`, so examples/failover's kill, wedge
# and fallback rounds run against a live cluster on every change.
examples:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	for d in examples/*/; do \
		name=$$(basename $$d); \
		echo "== examples/$$name"; \
		$(GO) build -o "$$bin/$$name" ./$$d || exit 1; \
		timeout 120 "$$bin/$$name" > "$$bin/$$name.out" 2>&1 || { \
			status=$$?; cat "$$bin/$$name.out"; \
			echo "examples/$$name exited $$status"; exit 1; }; \
	done

# Every native fuzz target in the tree (func Fuzz* in a _test.go file),
# FUZZTIME each: `go test` alone only ever replays their seed corpora. A
# crasher is written under the package's testdata/fuzz/ and fails the run.
FUZZTIME ?= 5s
fuzz-smoke:
	@for pkg in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$pkg/*_test.go | sed 's/^func //'); do \
			echo "== $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# No file gofmt would rewrite (part of `make check`, which CI's test job runs).
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l reports:"; gofmt -l .; exit 1; }

# Non-test, non-comment, non-blank Go lines per internal/ package and in
# total, then the exported fields of the two configuration structs (the
# knobs) — the numbers a simplicity PR quotes before and after.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cvE '^\s*(//|$$)'); \
		printf '%6d %s\n' "$$n" "$$d"; total=$$((total + n)); \
	done; printf '%6d total\n' "$$total"
	@for s in 'core.Options internal/core/optimize.go' 'wire.ClientConfig internal/wire/pool.go'; do \
		set -- $$s; \
		n=$$(sed -n "/^type $${1#*.} struct {/,/^}/p" $$2 | grep -cE '^[[:space:]][A-Z][A-Za-z0-9]*[[:space:]]'); \
		printf '%6d exported fields in %s\n' "$$n" "$$1"; \
	done

# The benchmark record: four workloads, end-to-end and per-layer metrics,
# every answer checked against the oracle (bench/README.md), then the diff
# against a record of the base commit BASE, made with the same flags from a
# temporary git worktree, as CI's advisory bench job does. BASE defaults to
# HEAD while the working tree has changes (the change is not committed yet)
# and to HEAD^ once it is clean (the change is the last commit); set it to
# the change's base commit in any other case.
BASE ?= $(if $(shell git status --porcelain),HEAD,HEAD^)
BASE_TREE = bench/out/base-tree
bench-json:
	$(GO) run ./bench -runs 3 -out bench/out/BENCH.json
	rm -rf $(BASE_TREE) && git worktree prune
	git worktree add --detach $(BASE_TREE) $(BASE)
	cd $(BASE_TREE) && $(GO) run ./bench -runs 3 -out $(CURDIR)/bench/out/BASE.json; \
		status=$$?; cd $(CURDIR) && git worktree remove --force $(BASE_TREE); exit $$status
	$(GO) run ./bench -diff bench/out/BASE.json bench/out/BENCH.json

# Full experiment regeneration (slow; see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchtime=1x -timeout=2h .

# The hand-run A/B the benchmark record has not replaced: no workload in
# bench/ runs with sampling on, so nothing there measures what a probe
# costs. Transport, tracing and deployment are measured by the record
# (`make bench-json`: wire.dials_per_query, wire.reuses_per_query,
# wire.rpc_us, obs.trace_overhead_pct, core.ddl_per_query,
# connector.deploy_view_us, core.plan_cache_hit_ratio).

# The sampling A/B: the same join with probes off vs on, accurate vs
# skewed statistics (EXPERIMENTS.md "Sampling-based refinement").
bench-sample:
	$(GO) test -run '^$$' -bench='BenchmarkSample' -benchtime=100x -count=1 ./internal/core/

check: build vet fmt-check test
