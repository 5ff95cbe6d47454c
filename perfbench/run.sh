#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload result-hits --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays in .bench_build/ at
# the checkout root (Go build cache, the binary, span dumps of traced runs).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"

if ! command -v go >/dev/null 2>&1; then
	PATH="${PATH}:/usr/local/go/bin"
fi
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
cd "${root}"
exec "${build}/perfbench" "$@"
