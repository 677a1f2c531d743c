#!/usr/bin/env bash
# Self-check for the `statsize audit` subcommand, run as a ctest:
#   1. every built-in and shipped example circuit must audit without errors
#      (exit < 3; warnings and notes are tolerated),
#   2. the audit JSON on a real circuit must carry its analytics sections
#      (graph_stats with the level-width histogram, nlp_instance),
#   3. --demo-defects (NaN bound box, zero-width level spam) must produce
#      errors (exit 3) naming NLP001 and GRF002.
#
# Usage: audit_selfcheck.sh <path-to-statsize-binary> <repo-root>
set -u

STATSIZE="$1"
REPO_ROOT="$2"
failures=0

check_clean() {
  local target="$1"
  "$STATSIZE" audit --circuit "$target" > /tmp/audit_out.$$ 2>&1
  local code=$?
  if [ "$code" -ge 3 ] || [ "$code" -eq 1 ]; then
    echo "FAIL: audit of '$target' exited $code (expected < 3)"
    cat /tmp/audit_out.$$
    failures=$((failures + 1))
  else
    echo "ok: $target (exit $code)"
  fi
}

for c in tree apex1 apex2 k2; do
  check_clean "$c"
done
for f in "$REPO_ROOT"/examples/circuits/*.blif; do
  [ -e "$f" ] || continue
  check_clean "$f"
done

# Analytics sections present on a k2-scale audit.
json="$("$STATSIZE" audit --circuit k2 --json - 2>/dev/null)"
code=$?
if [ "$code" -ge 3 ] || [ "$code" -eq 1 ]; then
  echo "FAIL: k2 JSON audit exited $code"
  failures=$((failures + 1))
fi
for section in graph_stats level_widths nlp_instance; do
  if ! printf '%s' "$json" | grep -q "\"$section\""; then
    echo "FAIL: k2 audit JSON is missing section '$section'"
    failures=$((failures + 1))
  fi
done
[ "$failures" -eq 0 ] && echo "ok: k2 audit JSON carries the analytics sections"

# Injected defects must flip the exit code.
json="$("$STATSIZE" audit --demo-defects --json - 2>/dev/null)"
code=$?
if [ "$code" -ne 3 ]; then
  echo "FAIL: audit --demo-defects exited $code (expected 3)"
  failures=$((failures + 1))
fi
for rule in NLP001 NLP005 GRF002; do
  if ! printf '%s' "$json" | grep -q "\"id\": \"$rule\""; then
    echo "FAIL: --demo-defects JSON is missing rule $rule"
    failures=$((failures + 1))
  fi
done
[ "$failures" -eq 0 ] && echo "ok: demo-defects fires (exit 3, NLP001+NLP005+GRF002)"

rm -f /tmp/audit_out.$$
if [ "$failures" -ne 0 ]; then
  echo "$failures audit self-check failure(s)"
  exit 1
fi
echo "audit self-check passed"
