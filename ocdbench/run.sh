#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, passing every
# argument through. Run it from the repository root:
#
#   bash ocdbench/run.sh --workload fit-local --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, per-run scratch files and Chrome trace files
# all live under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOCACHE"

go -C "$root/ocdbench" build -o "$out/ocdbench" .

if [ -d "$root/.git" ]; then
	OCDBENCH_GIT_SHA=$(git --git-dir="$root/.git" rev-parse HEAD 2>/dev/null || echo unknown)
	export OCDBENCH_GIT_SHA
fi
exec "$out/ocdbench" --workdir "$out" "$@"
