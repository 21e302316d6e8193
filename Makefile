# Build/verify entry points. `make verify` is the tier-1 gate: build,
# vet (of the benchmark module too), formatting, tests, the race detector over the whole module (the
# parallel experiment engine must stay clean under -race), and a short
# fuzz smoke over the ARQ frame decoders.

GO ?= go

.PHONY: all build vet bench-vet fmt-check staticcheck test race fuzz-smoke trace-smoke template-validate daemon-smoke chaos-smoke verify bench bench-jobs bench-check bench-baseline cover clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# benchmark/ is a nested module, so the root build, vet and test skip it:
# vet it on its own so an API change in the main module cannot break the
# benchmark harness unnoticed.
bench-vet:
	cd benchmark && $(GO) vet ./...

# gofmt -l lists unformatted files; fail if it prints anything.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# staticcheck when the host has it; skipped (not failed) otherwise, so
# verify works on boxes where the tool cannot be installed. CI runs
# `make verify STATICCHECK_MODE=strict`, which turns a missing binary into
# a hard failure so the linter can never be silently skipped there.
STATICCHECK_MODE ?= auto
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ "$(STATICCHECK_MODE)" = "strict" ]; then \
		echo "staticcheck not installed but STATICCHECK_MODE=strict"; exit 1; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Short fuzz runs over the wire-format decoders, the scenario template
# loader, the batch-kernel equivalence property, the LLC sharer-mask
# invariant and the packed PLRU and fill-path set summaries against their
# per-way references (go test takes one -fuzz pattern per invocation, hence
# one command per target).
fuzz-smoke:
	$(GO) test ./internal/channel -run '^$$' -fuzz FuzzFrameDecode -fuzztime 5s
	$(GO) test ./internal/channel -run '^$$' -fuzz FuzzAckDecode -fuzztime 5s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzLoadScenario -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzBatchScalarEquivalence -fuzztime 5s
	$(GO) test ./internal/hier -run '^$$' -fuzz FuzzHierSharers -fuzztime 5s
	$(GO) test ./internal/policy -run '^$$' -fuzz FuzzPLRUReference -fuzztime 5s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzCacheFillReference -fuzztime 5s

# Shipped-template gate: every template under templates/ must load through
# the strict parser/validator via the real CLI entry point.
template-validate:
	$(GO) run ./cmd/leakyway -template templates/ validate

# Traced-run determinism gate: the same traced fig8 run at -jobs 1 and
# -jobs 8, and at fleet width 1 and the default width, must export
# byte-identical traces. Filtered to the protocol-level subsystems to keep
# the files small.
trace-smoke:
	$(GO) build -o /tmp/leakyway-smoke ./cmd/leakyway
	/tmp/leakyway-smoke -quick -jobs 1 -trace /tmp/leakyway-trace-j1.jsonl \
		-trace-filter channel,sim,fault run fig8 > /dev/null
	/tmp/leakyway-smoke -quick -jobs 8 -trace /tmp/leakyway-trace-j8.jsonl \
		-trace-filter channel,sim,fault run fig8 > /dev/null
	/tmp/leakyway-smoke -quick -jobs 1 -batch 1 -trace /tmp/leakyway-trace-b1.jsonl \
		-trace-filter channel,sim,fault run fig8 > /dev/null
	cmp /tmp/leakyway-trace-j1.jsonl /tmp/leakyway-trace-j8.jsonl
	cmp /tmp/leakyway-trace-j1.jsonl /tmp/leakyway-trace-b1.jsonl
	@echo "trace-smoke: traces byte-identical across -jobs 1/8 and -batch 1/default"

# Daemon robustness gate: drives the real leakywayd binary over HTTP and
# signals — cache-hit resubmission, SIGTERM drain (exit 0, accepted jobs
# completed), and SIGKILL crash-recovery with byte-identical metrics.
daemon-smoke:
	$(GO) build -o /tmp/leakywayd-smoke ./cmd/leakywayd
	$(GO) run ./cmd/daemonsmoke -bin /tmp/leakywayd-smoke

# Disk-chaos gate: the same daemon binary under injected journal-fsync
# failure and a tiny store quota — degraded mode must engage (503 +
# Retry-After, healthz degraded(reason)) and clear once the fault burns
# out, quota eviction must hold the store under budget with every job
# completing, and the daemon must still drain cleanly.
chaos-smoke:
	$(GO) build -o /tmp/leakywayd-smoke ./cmd/leakywayd
	$(GO) run ./cmd/daemonsmoke -bin /tmp/leakywayd-smoke -chaos

# The slow end-to-end daemon gates ride verify by default; CI splits them
# into their own parallel job with `make verify VERIFY_SMOKES=`.
VERIFY_SMOKES ?= daemon-smoke chaos-smoke
verify: build vet bench-vet fmt-check staticcheck test race fuzz-smoke trace-smoke template-validate $(VERIFY_SMOKES)

# Full benchmark sweep (quick-mode trial counts).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Engine scaling curve: the full suite at 1/2/4/8 workers.
bench-jobs:
	$(GO) test -bench 'BenchmarkRunAllJobs' -benchtime 3x -run '^$$' .

# Perf-regression gate: run the pinned benchmark set and compare ns/op
# (±20%, with re-measurement of gates that fail on a noisy first sample) and
# allocs/op (ceiling +1%, rounded up) against the committed BENCH.json
# baselines. See
# cmd/benchcheck for the calibration and retry details.
bench-check:
	$(GO) run ./cmd/benchcheck

# Re-pin the BENCH.json baselines from this host's measurements.
bench-baseline:
	$(GO) run ./cmd/benchcheck -update

# Coverage floor over the simulation core: fail below $(COVER_FLOOR)%
# of statements across internal/... . The profile is left at cover.out
# for `go tool cover -html` or CI artifact upload.
COVER_FLOOR ?= 75
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage below floor"; exit 1; }

clean:
	$(GO) clean ./...
