#!/usr/bin/env bash
# Build cqc and the serve benchmark from source, then run one pass:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from anywhere inside a checkout; everything is read and written
# under the checkout root.
set -u
cd "$(dirname "$0")/.." || exit 1
export DUNE_CACHE=disabled
dune build --root . ./bin/cqc.exe ./perfbench/bench.exe 1>&2 || exit 1
exec ./_build/default/perfbench/bench.exe "$@"
