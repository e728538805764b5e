#!/usr/bin/env bash
# Self-tests for the benchmark's output checks. At tiny scale, each
# workload must pass untouched and must exit non-zero when one target
# row is altered, when one flushed commit is removed from the crash
# image, and when one snapshot read returns a stale value.
#   bash osc_bench/selftest.sh
set -uo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./osc_bench/main.exe 1>&2 || exit 2
exe=./_build/default/osc_bench/main.exe
mkdir -p osc_bench/_work
err=osc_bench/_work/selftest.err
status=0
for w in foj-eager-write split-lazy-read; do
  if $exe --workload "$w" --seed 7 --seconds 3 --scale tiny >/dev/null 2>"$err"; then
    echo "ok   $w: clean run passes"
  else
    echo "FAIL $w: clean run failed: $(tail -1 "$err")"
    status=1
  fi
  for t in target-row drop-commit stale-read; do
    if $exe --workload "$w" --seed 7 --seconds 3 --scale tiny --tamper "$t" >/dev/null 2>"$err"; then
      echo "FAIL $w/$t: the check missed the fault"
      status=1
    else
      echo "ok   $w/$t: $(tail -1 "$err")"
    fi
  done
done
rm -f "$err"
exit $status
