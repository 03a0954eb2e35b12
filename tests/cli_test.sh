#!/usr/bin/env bash
# CLI regression tests: strict numeric-flag validation and surfaced
# report-writer failures. Invoked by ctest as `cli_test.sh <algoprof>`.
set -u

ALGOPROF=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

cat > "$WORK/ok.mj" <<'EOF'
class Main {
  static void main() {
    int n = 0;
    if (hasInput()) {
      n = readInt();
    }
    int i = 0;
    while (i < n) {
      i = i + 1;
    }
    print(i);
  }
}
EOF

# INT64_MIN / -1: used to kill the interpreter with SIGFPE (exit 136);
# Java semantics define it as INT64_MIN.
cat > "$WORK/overflow_div.mj" <<'EOF'
class Main {
  static void main() {
    int min = -9223372036854775807 - 1;
    int d = 0 - 1;
    print(min / d);
    print(min % d);
  }
}
EOF

expect_ok() {
  local desc=$1; shift
  if ! out=$("$@" 2>&1); then
    fail "$desc: expected exit 0, got $? ($out)"
  fi
}

expect_rejected() {
  local desc=$1; shift
  local out rc
  out=$("$@" 2>&1)
  rc=$?
  if [ "$rc" -eq 0 ]; then
    fail "$desc: expected non-zero exit, got 0: $out"
  elif [ "$rc" -ge 128 ]; then
    fail "$desc: died with signal (exit $rc): $out"
  elif ! printf '%s' "$out" | grep -qi "invalid value\|usage:"; then
    fail "$desc: no diagnostic printed: $out"
  fi
}

# Baseline: a well-formed invocation works.
expect_ok "plain run" "$ALGOPROF" "$WORK/ok.mj"
expect_ok "good flags" "$ALGOPROF" "$WORK/ok.mj" \
  --runs 2 --jobs 2 --sample 0 --input 3,4
expect_ok "empty input list" "$ALGOPROF" "$WORK/ok.mj" --input ""

# Numeric flags used to go through atoi/atoll: "123abc" profiled 123
# runs, "x" meant 0, and overflow saturated silently.
expect_rejected "--runs trailing junk" "$ALGOPROF" "$WORK/ok.mj" --runs 123abc
expect_rejected "--runs non-numeric" "$ALGOPROF" "$WORK/ok.mj" --runs x
expect_rejected "--runs zero" "$ALGOPROF" "$WORK/ok.mj" --runs 0
expect_rejected "--runs negative" "$ALGOPROF" "$WORK/ok.mj" --runs -3
expect_rejected "--jobs non-numeric" "$ALGOPROF" "$WORK/ok.mj" --jobs x
expect_rejected "--jobs negative" "$ALGOPROF" "$WORK/ok.mj" --jobs -1
expect_rejected "--sample non-numeric" "$ALGOPROF" "$WORK/ok.mj" --sample x
expect_rejected "--sample negative" "$ALGOPROF" "$WORK/ok.mj" --sample -5
expect_rejected "--input stray char" "$ALGOPROF" "$WORK/ok.mj" --input 1,2x,3
expect_rejected "--input empty field" "$ALGOPROF" "$WORK/ok.mj" --input 1,,3
expect_rejected "--input overflow" "$ALGOPROF" "$WORK/ok.mj" \
  --input 99999999999999999999

# Report-writer failures must be a failing exit with an error message,
# not exit 0 with the file silently missing.
out=$("$ALGOPROF" "$WORK/ok.mj" --format dot --out "$WORK/no_such_dir/t.dot" 2>&1)
rc=$?
if [ "$rc" -eq 0 ]; then
  fail "--format dot to unwritable path: expected non-zero exit: $out"
elif ! printf '%s' "$out" | grep -q "cannot write"; then
  fail "--format dot to unwritable path: no error message: $out"
fi
out=$("$ALGOPROF" "$WORK/ok.mj" --format csv --out "$WORK/no_such_dir/t.csv" 2>&1)
rc=$?
if [ "$rc" -eq 0 ]; then
  fail "--format csv to unwritable path: expected non-zero exit: $out"
fi

# Unified reporting: --format NAME [--out FILE] is the one rendering
# path.
expect_ok "--format csv to stdout" "$ALGOPROF" "$WORK/ok.mj" \
  --input 5 --format csv
expect_ok "--format csv --out" "$ALGOPROF" "$WORK/ok.mj" \
  --input 5 --format csv --out "$WORK/new.csv"
expect_ok "--format dot --out" "$ALGOPROF" "$WORK/ok.mj" \
  --input 5 --format dot --out "$WORK/new.dot"
[ -s "$WORK/new.dot" ] || fail "--format dot produced no file"

# The pre-registry --csv/--dot aliases are removed: rejected with an
# exit code and a message naming the replacement, and no file written.
for flag in csv dot; do
  out=$("$ALGOPROF" "$WORK/ok.mj" --input 5 "--$flag" "$WORK/legacy.$flag" 2>&1)
  rc=$?
  [ "$rc" -ne 0 ] || fail "--$flag: removed alias accepted (exit 0): $out"
  printf '%s' "$out" | grep -q "removed.*--format $flag" \
    || fail "--$flag: rejection does not name the replacement: $out"
  [ ! -e "$WORK/legacy.$flag" ] || fail "--$flag: removed alias wrote a file"
done

# Format/out validation.
expect_rejected "--format unknown" "$ALGOPROF" "$WORK/ok.mj" --format yaml
expect_rejected "--out without --format" "$ALGOPROF" "$WORK/ok.mj" \
  --out "$WORK/x"
expect_rejected "--out after satisfied job" "$ALGOPROF" "$WORK/ok.mj" \
  --format csv --out "$WORK/x" --out "$WORK/y"

# The stable JSON schema.
expect_ok "--format json --out" "$ALGOPROF" "$WORK/ok.mj" \
  --input 5 --format json --out "$WORK/p.json"
grep -q "algoprof-profile/2" "$WORK/p.json" \
  || fail "--format json missing schema marker"

# Observability exports: files written, failures surfaced as exit codes.
expect_ok "--trace and --metrics" "$ALGOPROF" "$WORK/ok.mj" --input 5 \
  --trace "$WORK/t.json" --metrics "$WORK/t.prom"
grep -q "traceEvents" "$WORK/t.json" || fail "--trace wrote no trace JSON"
grep -q "algoprof_counter_total" "$WORK/t.prom" \
  || fail "--metrics wrote no prometheus text"
out=$("$ALGOPROF" "$WORK/ok.mj" --trace "$WORK/no_such_dir/t.json" 2>&1)
rc=$?
if [ "$rc" -eq 0 ]; then
  fail "--trace to unwritable path: expected non-zero exit: $out"
elif ! printf '%s' "$out" | grep -q "cannot write"; then
  fail "--trace to unwritable path: no error message: $out"
fi
out=$("$ALGOPROF" "$WORK/ok.mj" --metrics "$WORK/no_such_dir/t.prom" 2>&1)
[ $? -ne 0 ] || fail "--metrics to unwritable path: expected non-zero exit: $out"

# Defined overflow semantics end-to-end: the division used to raise
# SIGFPE (exit 136); it must now complete as an ordinary run. The
# printed value itself is asserted in VmTest.DivRemOverflowBoundary.
out=$("$ALGOPROF" "$WORK/overflow_div.mj" 2>&1)
rc=$?
if [ "$rc" -ne 0 ]; then
  fail "INT64_MIN / -1 run failed (exit $rc): $out"
fi

# --corpus: batch profiling. Invalid specs are rejected with a
# diagnostic, the flag is mutually exclusive with a file argument and
# the single-profile report flags, and the report is byte-identical
# between the serial (--jobs 1) and work-stealing (--jobs 4) paths.
mkdir -p "$WORK/corpus" "$WORK/empty_dir"
cp "$WORK/ok.mj" "$WORK/corpus/a.mj"
cp "$WORK/ok.mj" "$WORK/corpus/b.mj"
expect_rejected "--corpus missing value" "$ALGOPROF" --corpus
expect_rejected "--corpus empty value" "$ALGOPROF" --corpus ""
expect_rejected "--corpus nonexistent dir" "$ALGOPROF" \
  --corpus "$WORK/no_such_dir"
expect_rejected "--corpus dir without .mj" "$ALGOPROF" \
  --corpus "$WORK/empty_dir"
expect_rejected "--corpus plus file arg" "$ALGOPROF" \
  --corpus builtin "$WORK/ok.mj"
expect_rejected "--corpus plus --format" "$ALGOPROF" \
  --corpus builtin --format csv
expect_rejected "--corpus plus --cct" "$ALGOPROF" --corpus builtin --cct
expect_rejected "--corpus with bad --jobs" "$ALGOPROF" \
  --corpus "$WORK/corpus" --jobs x

expect_ok "--corpus dir" "$ALGOPROF" --corpus "$WORK/corpus" --seeds 3,5
serial=$("$ALGOPROF" --corpus "$WORK/corpus" --seeds 3,5,7,9 --jobs 1 2>&1)
rc1=$?
stealing=$("$ALGOPROF" --corpus "$WORK/corpus" --seeds 3,5,7,9 --jobs 4 2>&1)
rc4=$?
[ "$rc1" -eq 0 ] || fail "--corpus --jobs 1 failed (exit $rc1): $serial"
[ "$rc4" -eq 0 ] || fail "--corpus --jobs 4 failed (exit $rc4): $stealing"
[ "$serial" = "$stealing" ] \
  || fail "--corpus report differs between --jobs 1 and --jobs 4"
printf '%s' "$serial" | grep -q "a.mj" \
  || fail "--corpus report does not list a.mj: $serial"

# Resilience options ride along per corpus job: a fault killing run 1
# of every program degrades (exit 0, quarantine column) under skip.
out=$("$ALGOPROF" --corpus "$WORK/corpus" --seeds 3,5,7 --jobs 2 \
  --policy skip --inject run-start-fail@run1 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "--corpus degraded run: expected exit 0, got $rc: $out"
printf '%s' "$out" | grep -q "degraded" \
  || fail "--corpus degraded run: no degraded status: $out"

if [ "$FAILURES" -ne 0 ]; then
  # The trap removes $WORK: print every file the checks above read.
  for f in "$WORK"/p.json "$WORK"/t.json "$WORK"/t.prom "$WORK"/new.dot; do
    [ -e "$f" ] || continue
    echo "--- $(basename "$f")" >&2
    cat "$f" >&2
  done
  echo "$FAILURES cli test(s) failed" >&2
  exit 1
fi
echo "all cli tests passed"
