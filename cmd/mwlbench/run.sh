#!/usr/bin/env bash
# Builds mwlbench and mwld from source into .bench_build under the
# current directory, which must be the repository root, and runs the
# benchmark with the given arguments. Go's caches, configuration and
# temporary files stay under .bench_build too, and the build never
# fetches anything.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS= GOWORK=off
(cd "$root/cmd/mwlbench" && go build -o "$build/bin/" . repro/cmd/mwld)
exec "$build/bin/mwlbench" -mwld "$build/bin/mwld" "$@"
