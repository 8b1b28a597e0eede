#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload engine-tree --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The benchmark is a Go module of its own
# that reaches the solver's packages through the replace directive in
# perfbench/go.mod, so it only builds next to the repository's source. All
# build state (Go build cache, temp files, the binary) and every output file
# stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
work=$build/perfbench
mkdir -p "$work/gocache" "$work/tmp" "$work/gopath" "$work/config" "$work/out"

export GOCACHE=$work/gocache GOTMPDIR=$work/tmp TMPDIR=$work/tmp \
	GOPATH=$work/gopath XDG_CONFIG_HOME=$work/config \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off

(cd "$bench" && go build -buildvcs=false -o "$work/perfbench" .) >&2
exec "$work/perfbench" -root "$root" -out "$work/out" "$@"
