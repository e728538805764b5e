#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run one workload:
#   bash osc_bench/run.sh --workload foj-eager-write --seed 1 --seconds 30 --trace 0
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "osc_bench: run from a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
# Build output stays in the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./osc_bench/main.exe 1>&2
exec ./_build/default/osc_bench/main.exe "$@"
