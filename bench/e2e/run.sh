#!/usr/bin/env bash
# Builds kar_bench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash bench/e2e/run.sh --workload dp-steady --seed 1 --seconds 10 --trace 0
#   bash bench/e2e/run.sh run --seed 1 --json run.json
#
# Build output goes to standard error, so the benchmark's last line of
# standard output stays its result.  The dune cache is off so the build
# writes nowhere outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/kar_bench.exe 1>&2
exec ./_build/default/bench/e2e/kar_bench.exe "$@"
