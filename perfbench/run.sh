#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run
# write (the Go build cache, the binary, the benchmark's stores and
# span files) stays under .bench_build in that directory.
set -euo pipefail

if [[ ! -f go.mod ]] || ! grep -qx 'module repro' go.mod; then
	echo "perfbench: run from the root of the repro module (no go.mod declaring module repro here)" >&2
	exit 2
fi

root="$PWD/.bench_build"
mkdir -p "$root"
export GOCACHE="$root/gocache"
export GOPATH="$root/gopath"
export XDG_CONFIG_HOME="$root/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
export CGO_ENABLED=0

go build -buildvcs=false -o "$root/perfbench.bin" ./perfbench
exec "$root/perfbench.bin" "$@"
