# Build/verify entry points. `make verify` is the tier-1 gate: build,
# vet (of the benchmark module too), formatting, tests, the race detector over the whole module (the
# parallel experiment engine must stay clean under -race), and a short
# fuzz smoke over the ARQ frame decoders.

GO ?= go

.PHONY: all build vet bench-vet fmt-check staticcheck test race fuzz-smoke trace-smoke template-validate daemon-smoke chaos-smoke verify bench bench-jobs bench-check cover clean

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
# loader (each input as both YAML and JSON, with the canonical-marshal
# fixed point), the arena-vs-fresh-machine equivalence property, the LLC
# sharer-mask invariant, the packed PLRU, bit-plane quad-age and fill-path set
# summaries against their per-way references and the extent page table against
# the map-backed one (go test takes one -fuzz pattern per invocation, hence one
# command per target).
fuzz-smoke:
	$(GO) test ./internal/channel -run '^$$' -fuzz FuzzFrameDecode -fuzztime 5s
	$(GO) test ./internal/channel -run '^$$' -fuzz FuzzAckDecode -fuzztime 5s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzLoadScenario -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzBatchScalarEquivalence -fuzztime 5s
	$(GO) test ./internal/hier -run '^$$' -fuzz FuzzHierSharers -fuzztime 5s
	$(GO) test ./internal/policy -run '^$$' -fuzz FuzzPLRUReference -fuzztime 5s
	$(GO) test ./internal/policy -run '^$$' -fuzz FuzzQuadAgeReference -fuzztime 5s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzCacheFillReference -fuzztime 5s
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzAddressSpaceReference -fuzztime 5s

# Shipped-template gate: every template under templates/ must load through
# the strict parser/validator via the real CLI entry point.
template-validate:
	$(GO) run ./cmd/leakyway -template templates/ validate

# Traced-run determinism gate: the same traced fig6/fig7/fig8 run at
# -jobs 1 and -jobs 8 must export byte-identical traces. fig6 and fig7 each
# trace one recycled machine, fig8 a sweep of them. Filtered to the
# protocol-level subsystems to keep the files small.
#
# The smoke targets build and write into a fresh temporary directory that
# is removed on exit, so concurrent runs on one host do not clobber each
# other.
trace-smoke:
	set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/leakyway" ./cmd/leakyway; \
	"$$tmp/leakyway" -quick -jobs 1 -trace "$$tmp/trace-j1.jsonl" \
		-trace-filter channel,sim,fault run fig6 fig7 fig8 > /dev/null; \
	"$$tmp/leakyway" -quick -jobs 8 -trace "$$tmp/trace-j8.jsonl" \
		-trace-filter channel,sim,fault run fig6 fig7 fig8 > /dev/null; \
	cmp "$$tmp/trace-j1.jsonl" "$$tmp/trace-j8.jsonl"
	@echo "trace-smoke: fig6/fig7/fig8 traces byte-identical across -jobs 1/8"

# Daemon robustness gate: drives the real leakywayd binary over HTTP
# (through service.Client) and signals — an SSE progress frame before done,
# a /metricsz scrape, cache-hit resubmission, SIGTERM drain (exit 0,
# accepted jobs completed), and SIGKILL crash-recovery with byte-identical
# metrics.
daemon-smoke:
	set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/leakywayd" ./cmd/leakywayd; \
	$(GO) run ./cmd/daemonsmoke -bin "$$tmp/leakywayd"

# Disk-chaos gate: the same daemon binary and client under injected
# journal-fsync failure and a tiny store quota — degraded mode must engage (503 +
# Retry-After, healthz degraded(reason)) and clear once the fault burns
# out, quota eviction must hold the store under budget with every job
# completing, and the daemon must still drain cleanly.
chaos-smoke:
	set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/leakywayd" ./cmd/leakywayd; \
	$(GO) run ./cmd/daemonsmoke -bin "$$tmp/leakywayd" -chaos

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

# Perf-regression gate: time the BENCH.json gates on the working tree and
# on the base revision (HEAD with uncommitted changes, HEAD^1 without) in
# nine alternating pairs; fail when a gate's median head/base ns/op ratio
# exceeds +20% or its allocs/op exceed the base's +1%, rounded up. See
# cmd/benchcheck.
bench-check:
	$(GO) run ./cmd/benchcheck

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
