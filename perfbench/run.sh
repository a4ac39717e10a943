#!/bin/sh
# Builds the benchmark from source, then runs one workload:
#
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.  The dune cache is
# disabled so that nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
