#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload corpus-communities --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, daemon
# state, spill files, span dumps) stays under .bench_build/ in the working
# directory. Without the parent module next to e2ebench/ the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -workdir "$out" "$@"
