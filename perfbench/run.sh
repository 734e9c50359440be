#!/usr/bin/env bash
# Builds the EMBSAN benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign-syscall --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, telemetry and
# the binary) stays under .bench_build in the checkout. Build output goes
# to standard error, so the last line of standard output is the result.
set -euo pipefail
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
