#!/usr/bin/env bash
# Builds the r3dla benchmark from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run leave behind goes under
# $CARGO_TARGET_DIR (default .bench_build), including the Go build cache,
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
# Everything is built from this checkout: never fetch a module.
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
