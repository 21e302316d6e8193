#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
#
#   bash benchmark/run.sh --workload daemon-mixed --seed 7 --seconds 16 --trace 0
#
# Everything it writes (binary, Go build cache, per-round data, spans) goes
# under .bench_build at the repository root, which is also the working
# directory of the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/benchmark" && go build -o "$out/leakyway-bench" .)
cd "$root"
exec "$out/leakyway-bench" "$@"
