#!/usr/bin/env bash
# The paper's experiments as documented, run by ctest as `paper_docs`:
#   1. paper_experiments passes every row;
#   2. the block between the paper-experiments markers in EXPERIMENTS.md
#      equals the block the driver prints;
#   3. the committed fig1.csv and fig5.csv equal the ones it writes;
#   4. a wrong paper value makes it exit 1.
# Usage: check_experiments.sh <paper_experiments binary> <repo-root>
set -u

DRIVER=$(realpath "$1")
ROOT=$(realpath "$2")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

block() {
  sed -n '/^<!-- paper-experiments:begin/,/^<!-- paper-experiments:end -->/p' "$1"
}

"$DRIVER" > out.txt
RC=$?
[ "$RC" -eq 0 ] || fail "paper_experiments exited $RC: $(grep '^FAIL' out.txt)"

block out.txt > measured.md
block "$ROOT/EXPERIMENTS.md" > documented.md
[ -s measured.md ] || fail "the driver printed no experiments block"
diff -u documented.md measured.md \
  || fail "EXPERIMENTS.md differs from the driver (paste its block to fix)"

for CSV in fig1.csv fig5.csv; do
  cmp "$ROOT/$CSV" "$CSV" || fail "$CSV differs from the driver's"
done

"$DRIVER" --expect fig5_doubling_exponent=2 > wrong.txt
RC=$?
[ "$RC" -eq 1 ] || fail "a wrong paper value exited $RC, want 1"
grep -q '^FAIL fig5_doubling_exponent' wrong.txt \
  || fail "a wrong paper value was not reported"

if [ "$FAILURES" -gt 0 ]; then
  echo "$FAILURES experiments check(s) failed" >&2
  exit 1
fi
echo "experiments block and figure CSVs match the driver"
