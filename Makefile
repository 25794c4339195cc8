# clustermarket build entry points. `make help` lists the targets;
# `make all` is the local pre-push gate (lint + build + test), and the
# remaining targets are the CI legs (race, soaks, coverage, fuzz,
# layer benchmarks) runnable individually.
GO ?= go

.PHONY: all build test race vet lint vulncheck help bench bench-suite \
	soak soak-race soak-crash soak-telemetry soak-chaos cover cover-update fuzz

all: lint build test ## Lint, build, and test: the local pre-push gate

help: ## List targets
	@awk 'BEGIN {FS = ":.*##"} /^[a-zA-Z_-]+:.*##/ {printf "  %-16s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

build: ## Compile every package
	$(GO) build ./...

test: ## Run the full test suite
	$(GO) test ./...

race: ## Run the full test suite under the race detector
	$(GO) test -race ./...

vet: ## Run go vet
	$(GO) vet ./...

# Static analysis: go vet, then staticcheck when installed; the CI lint
# job pins and caches it, while a bare dev container skips it rather
# than failing. The repo's own contract analyzers (maporder, replaypure,
# allocfree, lockdiscipline — see DESIGN.md, "Static analysis &
# contracts") are not here: they run as a test in `make test`.
lint: vet ## go vet (+ staticcheck when installed)
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (the CI lint job runs it)"; \
	fi

vulncheck: ## govulncheck against the checked-in ignore list
	./scripts/vulncheck.sh

# The layer benchmarks in bench_test.go, one pass each: the clock
# against its reference, admission and the auction build at R = 192,
# and what the book retains an order. No baseline, no comparison — the
# pass is a smoke check of each benchmark's own shape assertions. Speed
# claims come from bench-suite.
bench: ## One pass over the layer benchmarks (a smoke check, not a gate)
	$(GO) test -run 'xxx' -bench . -benchtime 1x ./...

# The end-to-end suite in benchmark/ (its own module; see
# benchmark/README.md): five workloads, ~1 min, results as JSON for
# `go run -C benchmark . -compare`. The path is relative to benchmark/.
# CI runs the suite's 1/50-size smoke (`go test -C benchmark .`) instead,
# so a core API change that stops it compiling fails there.
BENCH_SUITE_OUT ?= out/suite.json
bench-suite: ## Run the five-workload end-to-end benchmark, JSON to benchmark/$(BENCH_SUITE_OUT)
	mkdir -p benchmark/out
	$(GO) run -C benchmark . -out $(BENCH_SUITE_OUT)

# Scenario soak: every catalog scenario on both backends, with the
# shared invariant kernel checked after every epoch. Exit code 2 means
# an invariant broke. soak-race runs the same under the race detector —
# the CI smoke configuration.
SOAK_FLAGS ?= -scenario all -backend both -seed 42
soak: ## Soak every catalog scenario on both backends (exit 2: an invariant broke)
	$(GO) run ./cmd/marketsim soak $(SOAK_FLAGS)
soak-race: ## The scenario soak for 6 epochs under the race detector (the CI smoke)
	$(GO) run -race ./cmd/marketsim soak $(SOAK_FLAGS) -epochs 6

# Crash-recovery soak: the crash-recovery scenario on both backends,
# journaled, killed without flushing before epoch 4's settlement wave,
# and resurrected from the WAL — exit code 3 if the recovered run's
# fingerprint diverges from the in-memory baseline by even one bit.
SOAK_CRASH_FLAGS ?= -scenario crash-recovery -backend both -seed 42 -crash-epoch 4
soak-crash: ## Kill-and-resurrect soak under -race (exit 3: the recovered run diverged)
	$(GO) run -race ./cmd/marketsim soak $(SOAK_CRASH_FLAGS) -journal-dir "$$(mktemp -d)"

# Chaos soak: every catalog scenario on both backends, journaled, each
# with two extra legs under a seeded-random fault schedule (disk faults,
# region partitions, gossip loss) — exit code 2 if any invariant breaks
# under fire, exit code 3 if the two same-seed chaos legs are not
# bit-identical. The scripted disk-fault and partition-storm scenarios
# additionally verify faults-heal fingerprint identity against the
# fault-free baseline on every soak run.
SOAK_CHAOS_FLAGS ?= -scenario all -backend both -seed 42 -chaos -chaos-seed 7
soak-chaos: ## Seeded fault-storm soak under -race (exit 2: invariant, 3: legs diverged)
	$(GO) run -race ./cmd/marketsim soak $(SOAK_CHAOS_FLAGS) -epochs 6 -journal-dir "$$(mktemp -d)"

# Telemetry soak: every catalog scenario on both backends with a
# firehose subscriber attached, requiring each run's report to be
# reconstructible bit-identically from the event stream alone — exit
# code 3 if the stream reconstruction's fingerprint diverges.
SOAK_TELEMETRY_FLAGS ?= -scenario all -backend both -seed 42 -telemetry
soak-telemetry: ## Event-stream reconstruction soak under -race (exit 3: stream diverged)
	$(GO) run -race ./cmd/marketsim soak $(SOAK_TELEMETRY_FLAGS) -epochs 6

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
