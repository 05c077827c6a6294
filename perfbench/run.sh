#!/usr/bin/env bash
# Builds muerpd and the perfbench binary from the source tree this script
# sits in, then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build artifact (binaries, the Go
# build cache, temporary files) stays under .bench_build/ in that root, and
# the toolchain never reaches for the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-buildvcs=false

go build -o "$out/bin/muerpd" ./cmd/muerpd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -muerpd "$out/bin/muerpd" "$@"
