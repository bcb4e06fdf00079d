#!/usr/bin/env bash
# Builds cmd/wasabid and the benchmark from the checkout this is run in,
# then runs the benchmark with the given flags. Run it from the
# repository root:
#
#   bash bench/run.sh --workload warm-corpus --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries,
# generated trees, cache directories, traces) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/wasabid || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and cmd/wasabid not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=

# -trimpath makes the seed corpus paths compiled into wasabid relative
# (wasabi/internal/apps/...), so reports do not depend on where the
# checkout lives; see bench/README.md.
go build -trimpath -o "$out/bin/wasabid" ./cmd/wasabid
(cd bench && go build -trimpath -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
