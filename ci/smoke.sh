#!/usr/bin/env bash
# Smoke checks that CI runs, and that run the same way from a source checkout.
#
#   ci/smoke.sh console   each subcommand once, the largest genus the SW and Fox budgets admit, a bundle whose output
#                         needs the widened digit limit, a stdout closed early, and over-budget inputs that must
#                         exit 1 with a message
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
  # the timeouts fail a slow edge input here, not at the job's 20-minute limit
  timeout 120 torusbundles swpoly --genus 7000 --n 3 > /dev/null  # the largest genus the SW routes take still prints
  timeout 120 torusbundles verify-parity --g 3000..3000 --mn 1..1  # the grid budget scores the genus as g^2, not g^3
  for command in classify homology spectral; do  # each subcommand imports its own modules
    torusbundles "$command" tests/golden/bundles/principal.json
  done
  for format in text json; do  # an invariant factor of 2L + 1 digits prints once the loader widens the limit
    torusbundles homology tests/golden/bundles/huge_factor.json --format=$format > /dev/null
  done
  # a stdout closed early exits 1 with no traceback
  torusbundles swpoly --genus 2000 --n 100000 --format=json 2> "$RUNNER_TEMP/pipe.txt" | head -c 1 > /dev/null
  code=${PIPESTATUS[0]}
  cat "$RUNNER_TEMP/pipe.txt"
  test "$code" -eq 1
  if grep -q Traceback "$RUNNER_TEMP/pipe.txt"; then exit 1; fi
  refused swpoly --genus 2 --n 1000000000000000000000000000000
  refused verify-parity --g 2..2 --mn 790..792
  refused verify-parity --g 2..2 --mn 691..693  # admitted, and over 10 s, while the cubic term weighed 1
  grep -q 'scores cells \* (4 max(|m|, |n|)^3 + g^2) above 3000000000' "$RUNNER_TEMP/refused.txt"
  refused sw0 --genus 100000 --m 1 --n 3
  python -c "import json; print(json.dumps({'genus': 1001, 'monodromy': [[[1, 0], [0, 1]]] * 2002, 'euler': [2, 3]}))" \
    > "$RUNNER_TEMP/huge_genus.json"  # above cli.MAX_FOX_GENUS = 1000
  python -c "import json; print(json.dumps({'genus': 1000, 'monodromy': [[[1, 1], [0, 1]]] + [[[1, 0], [0, 1]]] * 1999, 'euler': [3, 0]}))" \
    > "$RUNNER_TEMP/max_genus.json"  # at cli.MAX_FOX_GENUS = 1000, one unipotent generator
  # both walk the Fox relator at the largest genus its budget admits; the timeout fails a slow walk here, not at the
  # job's 20-minute limit
  for command in classify spectral; do
    timeout 120 torusbundles "$command" "$RUNNER_TEMP/max_genus.json" > /dev/null
  done
  for command in classify spectral; do
    refused "$command" "$RUNNER_TEMP/huge_genus.json"
    grep -q 'genus 1001 is above the 1000 that classify and spectral take' "$RUNNER_TEMP/refused.txt"
  done
  echo '{"genus": 2, "monodromy": [[[1, 0], [0, 1]], [[1, 0], [0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]], "euler": [0, 0]}' \
    > "$RUNNER_TEMP/bad_shape.json"  # monodromy[1]'s second row has one entry
  refused classify "$RUNNER_TEMP/bad_shape.json"
  grep -q 'monodromy\[1\] must be a 2x2 array \[\[a,b\],\[c,d\]\]' "$RUNNER_TEMP/refused.txt"
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
