#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig12 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the per-run result files (results/).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/results"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"

go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench" . >&2

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/perfbench" -commit "$commit" -out "$build/results" "$@"
