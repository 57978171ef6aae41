#!/usr/bin/env bash
# Builds the benchmark harness into .bench_build/ at the checkout root and
# runs it from there. Everything the build writes (binary, Go build cache,
# temporary files) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/hdvb-bench" .)
cd "$root"
exec "$build/hdvb-bench" "$@"
