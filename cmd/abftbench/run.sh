#!/usr/bin/env bash
# Builds abftbench from this checkout and runs it with the caller's
# arguments. Everything the Go toolchain writes (build cache, temporary
# files, the binary) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# No VCS stamping: the checkout need not be a repository, and one that sits
# inside somebody else's would fail the build instead.
go build -C "$here" -buildvcs=false -o "$build/abftbench" .
exec "$build/abftbench" "$@"
