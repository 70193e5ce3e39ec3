GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet lint lint-json lint-baseline test race stress fuzz-smoke obs-smoke bench-smoke e2ebench-check

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = go vet plus the domain-aware tempagglint analyzers gated against
# the checked-in findings budget (see README, "Static analysis & CI"):
# only findings not in lint_baseline.json, growth in the
# //tempagglint:ignore count, reasonless ignores, or stale ignores fail.
# CI runs exactly these targets.
lint: vet
	$(GO) run ./cmd/tempagglint -baseline lint_baseline.json ./...

# Machine-readable diagnostics for the CI artifact. The baseline gate is
# `make lint`; this run only records what the suite currently sees.
lint-json:
	$(GO) run ./cmd/tempagglint -json ./... > lint-findings.json || true
	@head -c 400 lint-findings.json; echo

# Regenerate the findings budget after deliberately accepting a finding
# or changing the suppression count. Review the diff before committing.
lint-baseline:
	$(GO) run ./cmd/tempagglint -write-baseline lint_baseline.json ./...

test:
	$(GO) test ./...

# The concurrency suites run again at several GOMAXPROCS values: some
# interleavings (a reader between two atomic stores of one writer) need
# real parallelism, and a one-core runner never produces them at -cpu 1.
# -short skips only core's three single-goroutine O(n^2) stress tests
# (stress_test.go), which the first line already runs: under -race they
# take ~3 of the ~3.5 minutes one core run costs on a 2-vCPU machine, and
# nine runs of them would pass go test's 10-minute timeout.
race:
	$(GO) test -race ./...
	$(GO) test -race -short -cpu 1,2,4 -count=3 ./internal/core ./internal/catalog ./internal/server

# Local-only soak of the concurrency suites, not run in CI: fifty
# repetitions at three GOMAXPROCS values surface interleavings that the
# three repetitions of `make race` rarely reach (about two minutes on a
# 2-vCPU machine).
stress:
	$(GO) test -race -short -run 'Race|Concurrent' -cpu 1,2,4 -count=50 ./internal/core ./internal/catalog ./internal/server

# The end-to-end benchmark is a module of its own (e2ebench/go.mod, which
# imports the program through `replace tempagg => ../`), so the root
# `go build ./...` never compiles it. This keeps an API change from
# breaking the benchmark unseen.
e2ebench-check:
	cd e2ebench && $(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

# Boot tempaggd with its admin surface, run a plain query plus an EXPLAIN
# ANALYZE, and fail if /metrics, /debug/traces, /debug/queries, or
# /debug/pprof/heap is broken, the pipeline counters stayed at zero, or the
# JSON debug payloads lost their schema. OBS_SMOKE_ARTIFACT (set in CI)
# names a file to receive the /debug/traces body for artifact upload.
obs-smoke:
	$(GO) test ./cmd/tempaggd -run TestObsSmoke -count=1 -v

# A short fuzz pass over the corpus-seeded targets (query layer, the reply
# encoder against encoding/json, relation images against the scanner, and
# the core GC/arena/live-snapshot invariants); long campaigns use the same
# targets with a bigger FUZZTIME.
fuzz-smoke:
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzExecute -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzEncodeMatchesJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relation -run '^$$' -fuzz FuzzImageVsScanner -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzKTreeGCThreshold -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzArenaReuse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSweepVsReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLiveSnapshotVsReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzIndexVsReference -fuzztime $(FUZZTIME)

# A fast machine-readable run of the hot-path experiments, gated against
# the checked-in BENCH_PR9.json: the target fails when any series' median
# slowdown over the shared points exceeds 50%. Series with no counterpart
# in the baseline (range-query, and the baseline figure's "partitioned
# serial random") are reported but not gated. Five seeds, not three: the
# smoke points are sub-millisecond and the per-point median needs the extra
# repetitions to sit inside the gate's tolerance; on a single-core runner
# those points still jitter by ~40% run to run, so the tolerance sits above
# that noise floor and below any real algorithmic regression (the cheapest
# of which double a series). Every series is serial, so there is no
# multi-core run. The JSON report is uploaded as a CI artifact for
# before/after comparison.
bench-smoke:
	$(GO) run ./cmd/benchharness -exp baseline,sweep,live-read,range-query -max-size 4096 -seeds 5 -json -tolerance 0.5 -baseline BENCH_PR9.json > bench-smoke.json
	@head -c 400 bench-smoke.json; echo
