#!/usr/bin/env bash
# Builds and runs nutribench from the root of a nutriprofile checkout:
#
#   bash bench/run.sh --workload bulk-paper --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and output stays under .bench_build/ in the
# checkout; the Go toolchain runs offline and with its own caches there.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/nutriserve ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a nutriprofile checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$build/bin/nutribench" .)
exec "$build/bin/nutribench" "$@"
