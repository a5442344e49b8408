# Tier-1 gate: `make check` runs everything CI needs in one command.

GO ?= go

.PHONY: check build test vet lint fmt-check fmt bench bench-smoke bench-ab bench-check bench-regress bench-rebaseline load-smoke race e2e-failover e2e-ryw e2e-geo docs-check

# Benchmark reports (BENCH_journal.json, BENCH_gateway.json) land in the
# repo root regardless of each test binary's working directory; the
# timestamp is pinned once per make invocation so both reports agree.
BENCH_ENV = STGQ_BENCH_OUT=$(CURDIR) STGQ_BENCH_TS=$$(date -u +%Y-%m-%dT%H:%M:%SZ)

check: fmt-check lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: go vet plus stgqcheck, the project-invariant
# analyzers (mutation wiring, lock-vs-I/O, epoch-qualified seq ordering,
# context propagation, metric naming). See docs/development.md.
lint: vet
	$(GO) run ./internal/tools/stgqcheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

bench:
	$(BENCH_ENV) $(GO) test -bench=. -benchmem -run=^$$ ./...
	$(MAKE) bench-check

# One-iteration smoke of the hot write, proxy, spatial-index and indexed
# engine paths: catches a broken journal append, gateway proxy pipeline,
# grid query or availability-index fast path at build time without the
# cost of a real benchmark run. Leaves validated BENCH_journal.json,
# BENCH_gateway.json, BENCH_geo.json and BENCH_engine.json in the repo
# root (CI archives them as artifacts). The write-then-read and the
# radius-graph extraction benchmarks emit no report: their output is
# allocs/op and B/op at 100k people, which must follow the s-hop ball.
bench-smoke:
	$(BENCH_ENV) $(GO) test -run='^$$' -bench='^BenchmarkJournalAppend$$' -benchtime=1x .
	$(BENCH_ENV) $(GO) test -run='^$$' -bench='^BenchmarkGatewayProxyOverhead$$' -benchtime=1x ./internal/gateway
	$(BENCH_ENV) $(GO) test -run='^$$' -bench='^BenchmarkGeoGrid$$' -benchtime=1x ./internal/geo
	$(BENCH_ENV) $(GO) test -run='^$$' -bench='^BenchmarkSTGSelect$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkPlanActivityAfterWrite$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkExtractRadiusGraph$$' -benchtime=1x -benchmem ./internal/socialgraph
	$(MAKE) bench-check

# The repository's benchmark (BENCHMARK.json) as alternating parent/change
# pairs judged by `stgqbench compare` — how a speed claim is measured:
#   make bench-ab PARENT=<rev> WORKLOAD=read_cold_100k PAIRS=5
# compares the working tree against PARENT (default: the last commit).
PARENT ?= HEAD
WORKLOAD ?= read_cold_100k
PAIRS ?= 5
bench-ab:
	bash scripts/bench-ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Validate the emitted benchmark reports: parseable, named, positive
# ns/op, at least one populated histogram each.
bench-check:
	$(GO) run ./internal/tools/benchcheck BENCH_journal.json BENCH_gateway.json BENCH_geo.json BENCH_engine.json

# A ≤30s closed-loop load run against an in-process 3-node cluster
# (leader, two followers, gateway): cmd/stgqload drives the mixed
# SGSelect/STGSelect/mutation/session-read workload and leaves a
# validated BENCH_load.json — throughput, per-class p50/p99/p999, and the
# per-stage latency attribution — in the repo root (CI archives it).
load-smoke:
	STGQ_BENCH_TS=$$(date -u +%Y-%m-%dT%H:%M:%SZ) $(GO) run ./cmd/stgqload \
		-users 300 -followers 2 -duration 5s -mode closed -concurrency 8 \
		-seed 1 -require-cache-hits -out $(CURDIR)/BENCH_load.json
	$(GO) run ./internal/tools/benchcheck BENCH_load.json

# Perf trajectory (operator-run, not CI: smoke-run ns/op is too noisy to
# gate merges on shared runners): compare the current reports against the
# committed baselines in bench/baseline at the default 20% tolerance.
bench-regress:
	$(GO) run ./internal/tools/benchcheck -baseline bench/baseline \
		BENCH_journal.json BENCH_gateway.json BENCH_geo.json BENCH_engine.json BENCH_load.json

# Refresh the committed baselines from the current reports (run on the
# reference machine after a deliberate perf change; commit the result).
bench-rebaseline:
	$(GO) run ./internal/tools/benchcheck -baseline bench/baseline -update \
		BENCH_journal.json BENCH_gateway.json BENCH_geo.json BENCH_engine.json BENCH_load.json

# The leader-kill acceptance scenario: auto-failover promotes a follower,
# writes resume at the new epoch with zero acknowledged loss, and the
# revived old leader stays fenced. The test also runs inside plain `make
# test` (it only skips under -short); this target is the explicit,
# uncached (-count=1), verbose handle for CI and operators.
e2e-failover:
	$(GO) test -run='^TestGatewayAutoFailover$$' -count=1 -v ./internal/gateway

# The read-your-writes acceptance scenario: under a deliberately lagging
# follower that ordinary reads genuinely prefer, a session's read after
# its own write never observes pre-write state (caught-up-follower
# routing, follower-side read barrier, or leader fallback) — including
# across a leader kill + auto-promotion. Also runs inside plain `make
# test` (it only skips under -short); this target is the explicit,
# uncached (-count=1), verbose handle for CI and operators.
e2e-ryw:
	$(GO) test -run='^TestGatewayReadYourWrites$$' -count=1 -v ./internal/gateway

# The geo-social acceptance scenario: location mutations through the
# gateway are visible to floored GSGSelect reads served from the replica
# tier (the grid-pruned == brute-force differential lives in
# internal/core's tests). Also runs inside plain `make test` (it only
# skips under -short); this target is the explicit, uncached (-count=1),
# verbose handle for CI and operators.
e2e-geo:
	$(GO) test -run='^TestGatewayGeoSocial$$' -count=1 -v ./internal/gateway

# Documentation gate: every exported identifier in the cluster packages
# (gateway, replica, journal, service) carries a doc comment, and every
# relative link in README.md and docs/ resolves.
docs-check:
	$(GO) run ./internal/tools/docscheck
