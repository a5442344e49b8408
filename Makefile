# Tier-1 gate: `make check` runs everything CI needs in one command.

GO ?= go

.PHONY: check build test vet lint fmt-check fmt bench bench-smoke bench-ab race batcher-stress fuzz-smoke e2e-failover e2e-ryw e2e-geo docs-check serving-deps

check: fmt-check lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The group-commit batcher's tests, twenty times over: a test that depends
# on how commits happen to interleave fails here instead of as a rare flake.
batcher-stress:
	$(GO) test -count=20 -run '^TestBatcher' ./internal/journal

vet:
	$(GO) vet ./...

# The serving binaries link none of the paper's comparators (the
# exhaustive baseline, the integer program and its MIP solver): those run
# from cmd/stgq and the experiments only. See docs/development.md.
serving-deps:
	@deps="$$($(GO) list -deps ./cmd/stgqd ./cmd/stgqgw)" || exit 1; \
	bad="$$(printf '%s\n' "$$deps" | grep -xE 'repro/internal/(mip|ipmodel|baseline)')"; \
	if [ -n "$$bad" ]; then \
		echo "stgqd/stgqgw link comparator packages:"; echo "$$bad"; exit 1; \
	fi; echo "serving-deps: stgqd and stgqgw link no comparator"

# Static-analysis gate: go vet plus stgqcheck, the project-invariant
# analyzers (lock-vs-I/O, context propagation, metric naming). See
# docs/development.md.
lint: vet
	$(GO) run ./internal/tools/stgqcheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

# The repository's benchmark (BENCHMARK.json): real stgqd/stgqgw processes
# driven through every declared workload. See bench/stgqbench/README.md.
bench:
	bash bench/stgqbench/run.sh

# One-iteration smoke of the hot write, proxy, spatial-index, engine,
# bootstrap and dataset-file paths: catches a broken journal append,
# gateway proxy pipeline, grid query, pivot preparation, follower
# bootstrap or dataset codec at build time without the cost of a real
# benchmark run. STGSelect reports allocs/op, which must not grow with the
# candidates (pivot windows live in one slab per query). The search-heavy
# pass is one search_heavy_600 pass in process and prints the engine's
# nodes/op and admissions/op, the counts its pruning rules move. The
# write-then-read and the radius-graph extraction benchmarks run at 100k
# people, where allocs/op and B/op must follow the s-hop ball. The
# bootstrap benchmark reports MB/s and fails when the leader sends a
# snapshot as a message per frame. The dataset Load and Save benchmarks
# report MB/s of a 10k-person file.
bench-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkJournalAppend$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkGatewayProxyOverhead$$' -benchtime=1x ./internal/gateway
	$(GO) test -run='^$$' -bench='^BenchmarkGeoGrid$$' -benchtime=1x ./internal/geo
	$(GO) test -run='^$$' -bench='^BenchmarkSTGSelect$$' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='^BenchmarkSearchHeavyPass$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkPlanActivityAfterWrite$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkExtractRadiusGraph$$' -benchtime=1x -benchmem ./internal/socialgraph
	$(GO) test -run='^$$' -bench='^BenchmarkSnapshotBootstrap$$' -benchtime=1x ./internal/replica
	$(GO) test -run='^$$' -bench='^BenchmarkDataset(Load|Save)$$' -benchtime=1x ./internal/dataset

# Ten seconds of each fuzz target against its oracle: the dataset codec
# against encoding/json, SGSelect and STGSelect against brute force. The
# seed corpora also run in plain `make test`; this explores beyond them.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzLoadAgreesWithEncodingJSON$$' -fuzztime=10s ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzSGSelectMatchesBruteForce$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzSTGSelectMatchesBruteForce$$' -fuzztime=10s ./internal/core

# The repository's benchmark as alternating parent/change pairs judged by
# `stgqbench compare` — how a speed claim is measured:
#   make bench-ab PARENT=<rev> WORKLOAD=read_cold_100k PAIRS=5
# compares the working tree against PARENT (default: the last commit).
PARENT ?= HEAD
WORKLOAD ?= read_cold_100k
PAIRS ?= 5
bench-ab:
	bash scripts/bench-ab.sh $(PARENT) $(WORKLOAD) $(PAIRS)

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
