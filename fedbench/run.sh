#!/usr/bin/env bash
# Builds the fedschedd daemon and the fedbench harness from source, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash fedbench/run.sh --workload warm-churn --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build cache and all run files stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"

go build -o "$build/fedschedd" ./cmd/fedschedd
(cd fedbench && go build -o "$build/fedbench" .)
exec "$build/fedbench" -daemon "$build/fedschedd" -dir "$build/run" "$@"
