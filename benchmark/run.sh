#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root, passing every argument on. Build cache, temporary files and the
# binary all live under .bench_build, so nothing is written elsewhere.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/qpibench" .
cd "$root"
exec "$build/qpibench" "$@"
