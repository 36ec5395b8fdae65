#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it there, passing every argument through:
#
#   bash benchmark/run.sh --workload suite-flow --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh compare A/ B/
#
# The Go build cache and temporary files stay under .bench_build/ too.
# Without the repository around it the build fails, and so does the run.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd benchmark && go build -o "$build/fsctbench" .)
exec "$build/fsctbench" "$@"
