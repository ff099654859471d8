#!/usr/bin/env bash
# Builds the splitmem ledger benchmark from source and runs it with the
# given flags. Run it from the repository root:
#
#   bash internal/bench/ledger/run.sh --workload compute-fork --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, the binary, journals, trace files)
# stays under .bench_build/ in the current directory. doc.go describes the
# workloads and metrics.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -o "$out/bin/ledger" ./internal/bench/ledger
exec "$out/bin/ledger" "$@"
