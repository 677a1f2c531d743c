#!/usr/bin/env bash
# Self-check for the `statsize lint` subcommand, run as a ctest:
#   1. every built-in and shipped example circuit must lint without errors
#      (exit < 3; warnings and notes are tolerated),
#   2. the lint JSON on a real circuit must carry its analytics sections
#      (graph_stats with the level-width histogram, nlp_instance),
#   3. the --demo-defects inputs must produce errors (exit 3) whose JSON
#      names one rule from each analysis family: CIR001, CIR006, LIB001,
#      NLP001, NLP005 and GRF002.
#
# Usage: lint_selfcheck.sh <path-to-statsize-binary> <repo-root>
set -u

STATSIZE="$1"
REPO_ROOT="$2"
failures=0

check_clean() {
  local target="$1"
  shift
  "$STATSIZE" lint --circuit "$target" "$@" > /tmp/lint_out.$$ 2>&1
  local code=$?
  if [ "$code" -ge 3 ] || [ "$code" -eq 1 ]; then
    echo "FAIL: lint of '$target' exited $code (expected < 3)"
    cat /tmp/lint_out.$$
    failures=$((failures + 1))
  else
    echo "ok: $target (exit $code)"
  fi
}

# Built-in circuits. The derivative sweep self-limits on large circuits via
# --derivative-cap, so k2 (1692 gates) stays fast.
for c in tree apex1 apex2 k2; do
  check_clean "$c"
done

# Every BLIF shipped under examples/.
for f in "$REPO_ROOT"/examples/circuits/*.blif; do
  [ -e "$f" ] || continue
  check_clean "$f"
done

# Analytics sections present on a k2-scale lint.
json="$("$STATSIZE" lint --circuit k2 --json - 2>/dev/null)"
code=$?
if [ "$code" -ge 3 ] || [ "$code" -eq 1 ]; then
  echo "FAIL: k2 JSON lint exited $code"
  failures=$((failures + 1))
fi
for section in graph_stats level_widths nlp_instance; do
  if ! printf '%s' "$json" | grep -q "\"$section\""; then
    echo "FAIL: k2 lint JSON is missing section '$section'"
    failures=$((failures + 1))
  fi
done
[ "$failures" -eq 0 ] && echo "ok: k2 lint JSON carries the analytics sections"

# The deliberately broken demo inputs must fire: exit 3 and one rule per family.
json="$("$STATSIZE" lint --demo-defects --json - 2>/dev/null)"
code=$?
if [ "$code" -ne 3 ]; then
  echo "FAIL: --demo-defects exited $code (expected 3)"
  failures=$((failures + 1))
fi
for rule in CIR001 CIR006 LIB001 NLP001 NLP005 GRF002; do
  if ! printf '%s' "$json" | grep -q "\"id\": \"$rule\""; then
    echo "FAIL: --demo-defects JSON is missing rule $rule"
    failures=$((failures + 1))
  fi
done
[ "$failures" -eq 0 ] &&
  echo "ok: demo-defects fires (exit 3, CIR001+CIR006+LIB001+NLP001+NLP005+GRF002)"

rm -f /tmp/lint_out.$$
if [ "$failures" -ne 0 ]; then
  echo "$failures lint self-check failure(s)"
  exit 1
fi
echo "lint self-check passed"
