#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload of it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build and run artifact (Go build
# cache, the benchmark binary, scratch table caches, span traces) stays
# under .bench_build/ in the current directory. The last line of
# standard output is the JSON result; everything else goes to stderr.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# XDG_CONFIG_HOME moves the go command's config and telemetry files too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
