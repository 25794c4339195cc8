# clustermarket build entry points. `make help` lists the targets;
# `make all` is the local pre-push gate (lint + build + test), and the
# remaining targets are the CI legs (race, soak, coverage, fuzz,
# layer benchmarks) runnable individually.
GO ?= go

.PHONY: all build test race vet lint vulncheck fma-check help bench \
	bench-clock bench-suite soak soak-race cover cover-update fuzz

all: lint build test ## Lint, build, and test: the local pre-push gate

help: ## List targets
	@awk 'BEGIN {FS = ":.*##"} /^[a-zA-Z_-]+:.*##/ {printf "  %-16s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

build: ## Compile every package
	$(GO) build ./...

# The benchmark's 1/50-size smoke runs each workload's own checks
# (lost_acks, bands, replay agreement), so a change that breaks a
# workload fails here and not only in CI.
test: ## Run the full test suite and the benchmark smoke
	$(GO) test ./...
	$(GO) test -C benchmark .

# The race run carries the scenario tables too: journaled = in-memory,
# crash recovery, same-seed chaos and stream reconstruction, on every
# catalog scenario and both backends (internal/scenario).
race: ## Run the full test suite under the race detector
	$(GO) test -race ./...

# benchmark/ is its own module: vetting it here makes `make all` fail on
# a core API change that stops the end-to-end suite from compiling.
vet: ## Run go vet (the module and benchmark/)
	$(GO) vet ./...
	$(GO) vet -C benchmark .

# Static analysis: go vet, gofmt (a file it would rewrite fails the
# target), then staticcheck when installed; the CI lint job pins and
# caches staticcheck, while a bare dev container skips it rather than
# failing. The repo's own contract analyzers (maporder, replaypure,
# allocfree, lockdiscipline — see DESIGN.md, "Static analysis &
# contracts") are not here: they run as a test in `make test`.
lint: vet ## go vet, gofmt -l (+ staticcheck when installed)
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would rewrite:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (the CI lint job runs it)"; \
	fi

vulncheck: ## govulncheck against the checked-in ignore list
	./scripts/vulncheck.sh

# Fused multiply-adds would let arm64, ppc64le and riscv64 round a cost
# differently from amd64: cross-compile marketd, marketsim and the root
# and internal/scenario test binaries for those three, disassemble them,
# and fail on any fused op in a clustermarket function (offline; ~80 s,
# most of it compiling the standard library).
fma-check: ## Fail on a fused multiply-add in arm64/ppc64le/riscv64 builds of the daemons and fingerprint tests
	./scripts/fma-check.sh

# The layer benchmarks in bench_test.go, one pass each: the clock
# against its reference, admission and the auction build at R = 192,
# what the book retains an order, and the federated tick with its
# settlement wave. No baseline, no comparison — the
# pass is a smoke check of each benchmark's own shape assertions. Speed
# claims come from bench-suite.
bench: ## One pass over the layer benchmarks (a smoke check, not a gate)
	$(GO) test -run 'xxx' -bench . -benchtime 1x ./...

# The clock's layer benchmarks on one CPU, ten runs each, for comparing a
# clock change against its parent run for run: BenchmarkSparseEpochClock
# (clock-sparse's first epoch), BenchmarkPlanetEpochClock (mem-planet's),
# BenchmarkClockScaling and the production side of the three
# *PlanetEngines benchmarks. The end-to-end suite's
# clock-sparse epoch spreads 11-16% between runs of one commit, so it
# cannot resolve a clock change smaller than that. The books' counted
# work is pinned in testdata/clockwork.txt (TestClockwork, tier-1).
bench-clock: ## The clock layer benchmarks at GOMAXPROCS=1, ten runs each
	GOMAXPROCS=1 $(GO) test -run 'xxx' -bench 'SparseEpochClock|PlanetEpochClock|WeldedEpochClock|ClockScaling' -count 10 .
	GOMAXPROCS=1 $(GO) test -run 'xxx' -bench 'PlanetEngines/production' -count 10 .

# The end-to-end suite in benchmark/ (its own module; see
# benchmark/README.md): five workloads, ~1 min, results as JSON for
# `go run -C benchmark . -compare`. The path is relative to benchmark/.
# `make test` and CI run the suite's 1/50-size smoke instead.
BENCH_SUITE_OUT ?= out/suite.json
bench-suite: ## Run the five-workload end-to-end benchmark, JSON to benchmark/$(BENCH_SUITE_OUT)
	mkdir -p benchmark/out
	$(GO) run -C benchmark . -out $(BENCH_SUITE_OUT)

# Scenario soak: every catalog scenario on both backends, with the
# shared invariant kernel checked after every epoch. Exit code 2 means
# an invariant broke. soak-race runs the same under the race detector —
# the CI smoke configuration. The journaled, crash, chaos and
# stream-reconstruction checks on these runs are tests in
# internal/scenario, run by `make test` and `make race`.
SOAK_FLAGS ?= -scenario all -backend both -seed 42
soak: ## Soak every catalog scenario on both backends (exit 2: an invariant broke)
	$(GO) run ./cmd/marketsim soak $(SOAK_FLAGS)
soak-race: ## The scenario soak for 6 epochs under the race detector (the CI smoke)
	$(GO) run -race ./cmd/marketsim soak $(SOAK_FLAGS) -epochs 6

# Coverage with a checked-in floor (COVERAGE_FLOOR) and per-package
# deltas against COVERAGE_baseline.txt. cover-update rewrites the
# baseline after intentional changes.
cover: ## Test coverage against COVERAGE_FLOOR, with deltas against the baseline
	./scripts/cover.sh
cover-update: ## Rewrite COVERAGE_baseline.txt after an intentional change
	./scripts/cover.sh -update

# Native fuzz smoke: each target briefly, as in CI. Longer local runs:
# go test -fuzz FuzzParse ./internal/bidlang
# (The clock differential's, the router replay's, the snapshot loader's,
# the archive codec's, the WAL decoder's and the WAL recovery's inputs are
# byte strings the fuzzer would otherwise spend the whole smoke
# minimizing: their budget is capped, and so is the clock-vs-Exact
# target's, whose every input solves a branch and bound.)
FUZZTIME ?= 10s
fuzz: ## Run every native fuzz target for FUZZTIME each, as in CI
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run 'xxx' ./internal/bidlang
	$(GO) test -fuzz FuzzRegistryRow -fuzztime $(FUZZTIME) -run 'xxx' ./internal/resource
	$(GO) test -fuzz 'FuzzQueryParams$$' -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
	$(GO) test -fuzz FuzzEventsQueryParams -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
	$(GO) test -fuzz FuzzBidSubmit -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
	$(GO) test -fuzz FuzzBidForm -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
	$(GO) test -fuzz FuzzAckPage -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
	$(GO) test -fuzz FuzzOrdersJSON -fuzztime $(FUZZTIME) -run 'xxx' ./internal/webui
	$(GO) test -fuzz FuzzSettledEventReplay -fuzztime $(FUZZTIME) -run 'xxx' ./internal/market
	$(GO) test -fuzz FuzzRestoreState -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run 'xxx' ./internal/market
	$(GO) test -fuzz FuzzArchiveRows -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run 'xxx' ./internal/market
	$(GO) test -fuzz FuzzRecoverWAL -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run 'xxx' ./internal/market
	$(GO) test -fuzz FuzzParseWAL -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run 'xxx' ./internal/journal
	$(GO) test -fuzz FuzzClockMatchesReference -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run 'xxx' ./internal/core
	$(GO) test -fuzz FuzzClockVsExact -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run 'xxx' ./internal/optimize
	$(GO) test -fuzz FuzzFedEventReplay -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run 'xxx' ./internal/federation
