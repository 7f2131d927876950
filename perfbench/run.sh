#!/usr/bin/env bash
# Build and run the repository benchmark.  From the repository root:
#
#   bash perfbench/run.sh --workload pao-cold --seed 1 --seconds 20 --trace 0
#
# Workloads: pao-cold, flow-j2, eco-route (see perfbench/METRICS.md).
# The last line of standard output is the JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ not found)" >&2
  exit 2
fi
# no shared dune cache: the build reads and writes only this checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
