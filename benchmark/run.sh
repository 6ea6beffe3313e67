#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the toolchain writes — the binary, Go's
# build cache, its config/telemetry directory and GOPATH — lands in
# .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
unset GOFLAGS
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/xdropbench" .)
cd "$root"
exec "$build/xdropbench" "$@"
