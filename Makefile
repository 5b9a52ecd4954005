# Tier-1 gate: `make check` must pass before any change lands.
GO ?= go

.PHONY: check lint vet build test race allocs bench-check resume-smoke bench-smoke bench figures fuzz chaos

check: lint build test race bench-check resume-smoke bench-smoke

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

# The allocation gates alone, each logging its measured count, so a
# regression names its layer: wire codec, journal, engine, tenant
# registry, and the client-to-engine round trips. `test` runs them too;
# they are excluded under -race, whose instrumentation allocates.
allocs:
	$(GO) test -run 'Allocs$$' -count=1 -v ./...

# bench/ is its own Go module, so `go build ./...` above never compiles
# it; vet and test it separately so an API change cannot silently break
# the benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# CLI-level crash/resume: a second atune-demo run over the same
# -checkpoint directory must resume the first run's 60 iterations, and
# leave a directory of journal segments only: no snap-*.ckpt or
# wal-*.log. Both legs run the one tuner type: -workers 1 drives it
# through its single-caller Step loop, -workers 4 through leases.
resume-smoke:
	@for w in 1 4; do \
		tmp=$$(mktemp -d); \
		$(GO) run ./cmd/atune-demo -checkpoint $$tmp -workers $$w -iters 60 >/dev/null && \
		out=$$($(GO) run ./cmd/atune-demo -checkpoint $$tmp -workers $$w -iters 120); st=$$?; \
		files=$$(ls -A $$tmp); \
		rm -rf $$tmp; \
		if [ $$st -ne 0 ]; then echo "resume-smoke: atune-demo -workers $$w failed"; exit 1; fi; \
		if ! echo "$$out" | grep -q "resumed from $$tmp at iteration 60"; then \
			echo "resume-smoke: -workers $$w did not resume at iteration 60:"; echo "$$out"; exit 1; \
		fi; \
		if [ -z "$$files" ] || echo "$$files" | grep -qv '^seg-[0-9]*\.log$$'; then \
			echo "resume-smoke: -workers $$w left more than journal segments:"; echo "$$files"; exit 1; \
		fi; \
		echo "resume-smoke: -workers $$w resumed at iteration 60 into" $$files; \
	done

# End-to-end smoke of the repository benchmark: a one-second run of each
# workload (durable_tenants includes its restart check) must exit 0,
# pass every correctness check and fail no trial. A run that stalls,
# e.g. because no completion is ever applied, is killed after 120 s (a
# cold build plus one run takes about 20 s).
bench-smoke:
	@for w in hot_pipelined lockstep_b1 durable_tenants strmatch_ctx; do \
		out=$$(timeout 120 bash bench/run.sh --workload $$w --seconds 1 --trace 0 2>&1); st=$$?; \
		if [ $$st -ne 0 ] || ! echo "$$out" | grep -q '"correct":true' || ! echo "$$out" | grep -q '"failed":0,'; then \
			echo "bench-smoke: $$w run not clean (exit $$st):"; echo "$$out"; exit 1; \
		fi; \
		echo "bench-smoke: $$w correct, 0 failed"; \
	done

# Short chaos soak (CI-viable, well under a minute): the fault-injection
# layer's own tests, the partition/reconnect and loopback soak of the
# distributed service, and the A14 ablation — all under -race. The full
# tier-1 `race` target runs these too; this target is the quick loop for
# iterating on the failure semantics alone.
chaos:
	$(GO) test -race ./internal/chaos
	$(GO) test -race -run 'TestChaos|TestDegradedMode|TestDrain|TestAbsorb|TestSessionCap|TestGlobalCap' \
		./internal/tuned ./internal/exp

# Fuzz the frame decoders — arbitrary bytes must never panic them or
# slip a payload past the checksum, neither from a journal segment's
# lines nor from the network — the hand-written journal record encoder
# and decoder, which must write exactly what json.Marshal writes and
# read exactly what json.Unmarshal reads, the hand-written encoder of
# the tuner's snapshot state, the
# drift detectors, which must stay finite and panic-free on any cost
# stream, and the context partitioner, whose routing must stay stable
# and replayable under arbitrary feature streams and hostile restore
# blobs.
fuzz:
	$(GO) test -fuzz=FuzzSegmentRead -fuzztime=10s ./internal/checkpoint
	$(GO) test -fuzz=FuzzJournalRecord -fuzztime=10s ./internal/checkpoint
	$(GO) test -fuzz=FuzzExportState -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzDriftUpdate -fuzztime=10s ./internal/stats
	$(GO) test -fuzz=FuzzPartitioner -fuzztime=10s ./internal/ctxtune

# Micro-benchmarks only (the -run pattern matches no test); end-to-end
# numbers come from the repository benchmark, bench/run.sh.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

figures:
	$(GO) run ./cmd/atune-figures
