#!/usr/bin/env bash
# Builds the repo benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload nn1-boot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace files stay under $CARGO_TARGET_DIR (default .bench_build) so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
