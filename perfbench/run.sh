#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to standard error, so
# the last line of standard output is the benchmark's JSON result.
set -euo pipefail
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
