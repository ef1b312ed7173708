#!/usr/bin/env bash
# Builds cald and the benchmark from the sources of the checkout it runs
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/cald" ./cmd/cald
(cd perfbench && go build -o "$out/bin/perfbench" .)

commit=$(git rev-parse HEAD 2>/dev/null || true)
exec "$out/bin/perfbench" --cald "$out/bin/cald" --commit "$commit" "$@"
