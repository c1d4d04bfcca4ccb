#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload table2-cpu --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, the compiler's scratch files and the
# benchmark's own temporary files (lines-churn's journals) all go under
# .bench_build/ in the checkout, so a run writes nothing outside it.
set -euo pipefail
root=$PWD
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; it needs go.mod and perfbench/go.mod" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/tmp"
export TMPDIR=$out/tmp GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
bin=$out/perfbench.$$
trap 'rm -f "$bin"' EXIT
(cd "$root/perfbench" && go build -o "$bin" .)
"$bin" "$@"
