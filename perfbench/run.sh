#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload sliding --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artefact, cache and state
# directory stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"

# Keep the Go toolchain's caches inside the checkout and off the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOTELEMETRY=off

# Stamp the result with the commit, or with a hash of the sources when the
# tree is not a git checkout.
commit=""
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
fi
if [[ -z "$commit" ]]; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
		| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi

(cd "$root/perfbench" && go build -ldflags "-X main.commit=$commit" -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
