# fedsched — reproduction of Baruah, DATE 2015.
# Stdlib-only Go; all targets are thin wrappers over the go tool.

GO ?= go

.PHONY: all check build vet test test-short test-race cover bench fuzz fuzz-smoke serve-smoke obs-smoke shard-bench policy-bench perf-gate perf-baseline experiments experiments-quick examples clean

all: build vet test

# What CI runs (.github/workflows/ci.yml): vet + build + the whole test
# suite under the race detector (the differential oracles, the parallel
# Phase-1 determinism pins, the shard/durability, incremental-partition,
# admission-policy and typed-model suites all run there), a fuzzing smoke
# pass, an end-to-end boot/admit/drain check of the fedschedd daemon, a smoke
# test of its observability surface (/metrics, pprof, ?trace=1, flight
# recorder, audit log), and the continuous perf-regression gate over the
# pinned benchmark set.
check: vet build test-race fuzz-smoke serve-smoke obs-smoke perf-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One benchmark per evaluation experiment (E1–E21) plus package micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing sessions over the decoders and the QPA cross-check.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalJSON -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzBuilder -fuzztime=30s ./internal/dag/
	$(GO) test -fuzz=FuzzExactVsNaive -fuzztime=30s ./internal/dbf/
	$(GO) test -fuzz=FuzzDBFStar -fuzztime=30s ./internal/dbf/
	$(GO) test -fuzz=FuzzVerifyAllocation -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzTaskHash -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzPartitionState -fuzztime=30s ./internal/partition/

# CI smoke pass over the property fuzz targets (30 s each).
fuzz-smoke:
	$(GO) test -fuzz=FuzzDBFStar -fuzztime=30s ./internal/dbf/
	$(GO) test -fuzz=FuzzVerifyAllocation -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzPartitionState -fuzztime=30s ./internal/partition/

# End-to-end daemon smoke test: build fedschedd, boot it on a random port,
# admit Example 1 (accepted) and a 3-wide high-density task (3-processor
# Phase-1 grant), then SIGTERM and assert a clean drain. Followed by the
# crash-recovery smoke: admit with -wal-dir, kill -9, restart on the same
# directory, assert a byte-identical allocation and a prewarmed Phase-1 cache.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Shared-nothing scaling sweep: boot fedschedd at -shards 1, 4 and 8, drive
# each with the built-in cross-cluster load generator, and record
# admissions/sec + latency quantiles into results/timing_shards.json.
shard-bench:
	$(GO) run ./scripts/shardbench

# Policy benchmark: time cold and warm admissions under each -policy
# (fedcons, semi, reservation) on a fixed workload and record the medians
# into results/timing_policy.json.
policy-bench:
	$(GO) run ./scripts/policybench

# Observability smoke test: boot fedschedd with -v/-audit/-debug-addr, scrape
# the Prometheus exposition, admit with ?trace=1 asserting the inline decision
# trace, pull a pprof profile from the debug listener, and check the audit log.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# Continuous perf-regression gate: run the pinned benchmark set (medians over
# -count 5), compare against results/bench_baseline.json, fail on a >25%
# slowdown, and append the run to results/bench_history.jsonl. On a host
# whose fingerprint differs from the baseline's the gate is advisory.
perf-gate:
	$(GO) run ./scripts/perfgate

# Re-record the committed perf baseline from this host's medians.
perf-baseline:
	$(GO) run ./scripts/perfgate -update

# Regenerate the EXPERIMENTS.md measurement body (full scale; several minutes).
experiments:
	$(GO) run ./cmd/experiments -plot -csv results -o report.md

experiments-quick:
	$(GO) run ./cmd/experiments -quick -plot

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/avionics
	$(GO) run ./examples/anomaly
	$(GO) run ./examples/speedupbound
	$(GO) run ./examples/pipeline

clean:
	rm -f report.md test_output.txt bench_output.txt
