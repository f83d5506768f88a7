#!/usr/bin/env bash
# Builds cos-bench from the checkout it is run in, then runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/cos-bench/bench.sh --workload link-1k --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the toolchain's temp files, the
# binary, the benchmark's scratch data and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/cos-bench/go.mod" ]]; then
	echo "cos-bench: run from the repository root (no go.mod for the module under test here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/cmd/cos-bench" build -o "$out/cos-bench" .
exec "$out/cos-bench" -workdir "$out" "$@"
