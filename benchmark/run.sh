#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload table1-stream --seed 1 --seconds 15 --trace 0
#
# Every build artefact, including the Go build cache, stays under
# .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/mod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

(cd benchmark && go build -o "$out/banbench" .)
exec "$out/banbench" "$@"
