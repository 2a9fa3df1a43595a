GO ?= go

.PHONY: build test race vet fmt-check loc bench bench-json bench-reopt bench-sample chaos soak fuzz-smoke check

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
# and foreign-table cache), and the mediator and sclera baselines fan their
# metadata out over nodes through core; run them under the race detector.
race:
	$(GO) test -race ./internal/wire/... ./internal/core/... ./internal/connector/... ./internal/engine/... ./internal/mediator/... ./internal/sclera/...

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
# total — the numbers a simplicity PR quotes before and after.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cvE '^\s*(//|$$)'); \
		printf '%6d %s\n' "$$n" "$$d"; total=$$((total + n)); \
	done; printf '%6d total\n' "$$total"

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

# The two hand-run A/Bs the benchmark record has not replaced: no workload
# in bench/ runs with re-optimization or sampling on, so nothing there
# measures what a barrier or a probe costs. Transport, tracing and
# deployment are measured by the record (`make bench-json`:
# wire.dials_per_query, wire.reuses_per_query, wire.rpc_us,
# obs.trace_overhead_pct, core.ddl_per_query, connector.deploy_view_us,
# core.plan_cache_hit_ratio).

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
