#!/usr/bin/env bash
# Builds the benchmark from source with dune and runs it, from the root
# of the repository checkout this script sits in:
#
#   bash perfbench/run.sh --workload NAME --seconds S [--seed N] [--trace 0|1]
#
# Build messages go to standard error; the last line of standard output
# is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --display quiet -- ./perfbench/main.exe "$@"
