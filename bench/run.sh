#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything the
# Go toolchain writes — build cache, temporary files, telemetry — goes under
# .bench_build in the checkout, so a run touches nothing outside it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh set -out a.json | compare a.json b.json | -selfcheck
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -C "$here" -o "$build/cloudfog-bench" . >&2
cd "$root"
exec "$build/cloudfog-bench" "$@"
