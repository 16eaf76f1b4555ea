#!/usr/bin/env bash
# Smoke checks that CI runs, and that run the same way from a source checkout.
#
#   ci/smoke.sh console   each subcommand once on a small input, and one invalid input that must exit 1 with a
#                         message and no traceback, through the installed console script.  The budgets' edges,
#                         their refusals and the other error paths are checked by tests/test_cli.py (its opt-in
#                         slow tests among them) and the golden transcripts in tests/golden, not here
#   ci/smoke.sh bench     5 s benchmark runs of both gated workloads and one traced run, each correct with 0 failed
#
# The command is whatever `torusbundles` is on PATH, the installed console script in CI; without one the first
# call exits 127 with "command not found".  Scratch files go to $RUNNER_TEMP, or to a new temporary directory
# that is removed on exit.
set -e  # as bash -e, the shell GitHub runs a `run:` step in
cd "$(dirname "$0")/.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

refused() {  # the arguments must exit 1 with a message and no traceback
  code=0
  torusbundles "$@" > "$RUNNER_TEMP/refused.txt" 2>&1 || code=$?
  cat "$RUNNER_TEMP/refused.txt"
  test "$code" -eq 1
  if grep -q Traceback "$RUNNER_TEMP/refused.txt"; then exit 1; fi
}

console() {
  torusbundles sw0 --genus 2 --m 3 --n 3
  torusbundles swpoly --genus 3 --n 5
  torusbundles verify-parity --g 2..3 --mn -3..3
  for command in classify homology spectral; do  # each subcommand imports its own modules
    torusbundles "$command" tests/golden/bundles/principal.json
  done
  refused sw0 --genus 2 --m 1 --n 0  # names no budget, so a budget's change leaves this script alone
}

bench() {
  # the traced run is the only one that calls integer_kernel, rank, cokernel_structure and snf on D1, D2
  # and the relation matrix
  for args in "classify-mixed --trace 0" "sw-large-modulus --trace 0" "classify-mixed --trace 1"; do
    python3 perfbench/run.py --workload $args --seed 1 --seconds 5 | tee "$RUNNER_TEMP/bench.txt"
    tail -n 1 "$RUNNER_TEMP/bench.txt" | python3 -c \
      'import json, sys; line = json.load(sys.stdin); sys.exit(not (line["correct"] is True and line["failed"] == 0))'
  done
}

case "${1:-}" in
  console | bench) "$1" ;;
  *)
    echo "usage: ci/smoke.sh console|bench" >&2
    exit 2
    ;;
esac
