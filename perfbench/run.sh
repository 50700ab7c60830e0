#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it.
# Run from the checkout root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, data directories and span files stay under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail
[ -f perfbench/go.mod ] || { echo "run.sh: run from the checkout root" >&2; exit 2; }
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
# Keep every file the go command writes inside the build directory.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
