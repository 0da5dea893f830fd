#!/usr/bin/env bash
# Builds the layer benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash layerbench/run.sh --workload kernel-glitch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artefact (Go build
# cache, binary, temporary lakes, span files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/layerbench/go.mod" ]; then
	echo "layerbench: run from the repository root (needs go.mod, internal/ and layerbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"

(cd "$root/layerbench" && go build -o "$out/layerbench" .)
exec "$out/layerbench" --out "$out" "$@"
