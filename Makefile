# Tier-1 gate: `make check` must pass before any change lands.
GO ?= go

.PHONY: check lint vet build test race bench-check resume-smoke durable-smoke bench figures fuzz chaos

check: lint build test race bench-check resume-smoke durable-smoke

# gofmt emits the offending files on stdout and exits 0; turn any output
# into a failure so unformatted code can't land.
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The guard layer's deadline goroutines, the quarantine bookkeeping and
# the checkpoint I/O must be race-clean; -race runs the full module —
# commands and the top-level benchmark package included.
race:
	$(GO) test -race ./...

# bench/ is its own Go module, so `go build ./...` above never compiles
# it; vet and test it separately so an API change cannot silently break
# the benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# CLI-level crash/resume: a second atune-demo run over the same
# -checkpoint directory must resume the first run's 60 iterations, for
# the sequential loop and for the lease-based trial engine alike.
resume-smoke:
	@for w in 1 4; do \
		tmp=$$(mktemp -d); \
		$(GO) run ./cmd/atune-demo -checkpoint $$tmp -workers $$w -iters 60 >/dev/null && \
		out=$$($(GO) run ./cmd/atune-demo -checkpoint $$tmp -workers $$w -iters 120); st=$$?; \
		rm -rf $$tmp; \
		if [ $$st -ne 0 ]; then echo "resume-smoke: atune-demo -workers $$w failed"; exit 1; fi; \
		if ! echo "$$out" | grep -q "resumed from $$tmp at iteration 60"; then \
			echo "resume-smoke: -workers $$w did not resume at iteration 60:"; echo "$$out"; exit 1; \
		fi; \
		echo "resume-smoke: -workers $$w resumed at iteration 60"; \
	done

# End-to-end durable path: a one-second durable_tenants benchmark run
# (two journalled tenants served over loopback, then a restart that
# checks both resume at exactly the iterations they served) must pass
# every correctness check with no failed trial.
durable-smoke:
	@out=$$(bash bench/run.sh --workload durable_tenants --seconds 1 --trace 0 2>&1); st=$$?; \
	if [ $$st -ne 0 ] || ! echo "$$out" | grep -q '"correct":true' || ! echo "$$out" | grep -q '"failed":0,'; then \
		echo "durable-smoke: durable_tenants run not clean:"; echo "$$out"; exit 1; \
	fi; \
	echo "durable-smoke: durable_tenants correct, 0 failed"

# Short chaos soak (CI-viable, well under a minute): the fault-injection
# layer's own tests, the partition/reconnect and loopback soak of the
# distributed service, and the A14 ablation — all under -race. The full
# tier-1 `race` target runs these too; this target is the quick loop for
# iterating on the failure semantics alone.
chaos:
	$(GO) test -race ./internal/chaos
	$(GO) test -race -run 'TestChaos|TestDegradedMode|TestDrain|TestAbsorb|TestSessionCap|TestGlobalCap' \
		./internal/tuned ./internal/exp

# Fuzz the two frame decoders — arbitrary bytes must never panic them or
# slip a payload past the checksum, neither from a snapshot file nor
# from the network — the journal's hand-written record encoder, which
# must write exactly what json.Marshal writes, the drift detectors,
# which must stay finite and panic-free on any cost stream, and the
# context partitioner, whose routing must stay stable and replayable
# under arbitrary feature streams and hostile restore blobs.
fuzz:
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/checkpoint
	$(GO) test -fuzz=FuzzJournalRecord -fuzztime=10s ./internal/checkpoint
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzDriftUpdate -fuzztime=10s ./internal/stats
	$(GO) test -fuzz=FuzzPartitioner -fuzztime=10s ./internal/ctxtune

# Micro-benchmarks plus the trial-engine and wire throughput sweeps;
# the sweeps land in BENCH_*.json for trend tracking.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/atune-bench -out BENCH_trial_engine.json
	$(GO) run ./cmd/atune-bench -wire -out BENCH_wire.json
	$(GO) run ./cmd/atune-bench -shards -out BENCH_shard.json
	$(GO) run ./cmd/atune-bench -tenants 4 -tenant-workers 4 -out BENCH_tenant.json
	$(GO) run ./cmd/atune-bench -contextual -out BENCH_context.json

figures:
	$(GO) run ./cmd/atune-figures
