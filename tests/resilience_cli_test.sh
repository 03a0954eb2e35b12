#!/usr/bin/env bash
# Resilience CLI tests: failure policies, deterministic fault injection
# (--inject / ALGOPROF_INJECT), run budgets, and io-write fault exits.
# Invoked by ctest as `resilience_cli_test.sh <algoprof>`.
set -u

ALGOPROF=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

# Allocates one small array per loop iteration, so heap-oom injection
# and --max-heap-bytes have something to trip on.
cat > "$WORK/alloc.mj" <<'EOF'
class Main {
  static void main() {
    int n = 4;
    if (hasInput()) {
      n = readInt();
    }
    int i = 0;
    while (i < n) {
      int[] a = new int[4];
      a[0] = i;
      i = i + 1;
    }
    print(i);
  }
}
EOF

# Pure compute: only the deadline watchdog can end it early.
cat > "$WORK/spin.mj" <<'EOF'
class Main {
  static void main() {
    int i = 0;
    while (i < 100000000) {
      i = i + 1;
    }
    print(i);
  }
}
EOF

SEEDS=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16

# A 16-run sweep with one injected failure under the skip policy must
# complete, warn about exactly the quarantined run, and report it in
# the JSON degraded_runs array.
out=$("$ALGOPROF" "$WORK/alloc.mj" --seeds "$SEEDS" --jobs 4 \
      --policy skip --inject heap-oom@run3 \
      --format json --out "$WORK/degraded.json" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "skip sweep: expected exit 0, got $rc: $out"
printf '%s' "$out" | grep -q "warning: run 3 quarantined" \
  || fail "skip sweep: no quarantine warning: $out"
n=$(printf '%s' "$out" | grep -c "quarantined")
[ "$n" -eq 1 ] || fail "skip sweep: expected 1 quarantined run, got $n"
grep -q '"degraded_runs"' "$WORK/degraded.json" \
  || fail "skip sweep: JSON missing degraded_runs"
grep -q '"run": 3, "status": "budget"' "$WORK/degraded.json" \
  || fail "skip sweep: degraded_runs missing run 3"

# The same sweep unfaulted must byte-match the degraded sweep over the
# surviving seeds (quarantine removes the run, not just its report).
SURVIVORS=1,2,3,5,6,7,8,9,10,11,12,13,14,15,16
"$ALGOPROF" "$WORK/alloc.mj" --seeds "$SURVIVORS" \
  --format json --out "$WORK/serial.json" >"$WORK/serial.log" 2>&1 \
  || fail "survivor serial sweep failed (see serial.log)"
# Compare the algorithms section only (degraded_runs differs by design).
sed '/"degraded_runs"/,$d' "$WORK/degraded.json" > "$WORK/degraded.algo"
sed '/"degraded_runs"/,$d' "$WORK/serial.json" > "$WORK/serial.algo"
cmp -s "$WORK/degraded.algo" "$WORK/serial.algo" \
  || fail "degraded sweep profile differs from serial over survivors"

# Under the default fail policy an injected failure is a non-zero exit
# naming the run and the tripped budget.
out=$("$ALGOPROF" "$WORK/alloc.mj" --seeds "$SEEDS" --jobs 4 \
      --inject heap-oom@run3 2>&1)
rc=$?
[ "$rc" -ne 0 ] || fail "fail policy: expected non-zero exit: $out"
printf '%s' "$out" | grep -q "error: run 3 failed (budget heap_bytes)" \
  || fail "fail policy: error does not name run and budget: $out"

# A transient fault (:once) under retry recovers: clean exit, nothing
# quarantined.
out=$("$ALGOPROF" "$WORK/alloc.mj" --seeds "$SEEDS" --jobs 4 \
      --policy retry --retries 1 --inject heap-oom@run3:once 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "retry recovery: expected exit 0, got $rc: $out"
printf '%s' "$out" | grep -q "quarantined" \
  && fail "retry recovery: run was quarantined: $out"

# Run budgets end runs deterministically with the budget named.
out=$("$ALGOPROF" "$WORK/alloc.mj" --input 100000 --max-heap-bytes 4096 2>&1)
rc=$?
[ "$rc" -ne 0 ] || fail "--max-heap-bytes: expected non-zero exit: $out"
printf '%s' "$out" | grep -q "budget heap_bytes" \
  || fail "--max-heap-bytes: budget not named: $out"
out=$("$ALGOPROF" "$WORK/spin.mj" --deadline-ms 1 2>&1)
rc=$?
[ "$rc" -ne 0 ] || fail "--deadline-ms: expected non-zero exit: $out"
printf '%s' "$out" | grep -q "budget deadline" \
  || fail "--deadline-ms: budget not named: $out"

# io-write faults hit the named stream's write site and nothing else.
out=$("$ALGOPROF" "$WORK/alloc.mj" --inject io-write-fail@report \
      --format json --out "$WORK/r.json" 2>&1)
rc=$?
[ "$rc" -ne 0 ] || fail "io-write-fail@report: expected non-zero exit: $out"
printf '%s' "$out" | grep -q "cannot write" \
  || fail "io-write-fail@report: no write error: $out"
out=$("$ALGOPROF" "$WORK/alloc.mj" --inject io-write-fail@trace \
      --trace "$WORK/t.json" 2>&1)
[ $? -ne 0 ] || fail "io-write-fail@trace: expected non-zero exit: $out"
out=$("$ALGOPROF" "$WORK/alloc.mj" --inject io-write-fail@metrics \
      --metrics "$WORK/m.prom" 2>&1)
[ $? -ne 0 ] || fail "io-write-fail@metrics: expected non-zero exit: $out"
# The report stream fault must not affect a metrics-only invocation.
"$ALGOPROF" "$WORK/alloc.mj" --inject io-write-fail@report \
  --metrics "$WORK/ok.prom" >"$WORK/metrics_only.log" 2>&1 \
  || fail "io-write-fail@report broke an unrelated metrics write (see metrics_only.log)"

# ALGOPROF_INJECT is the env fallback; an explicit --inject wins.
out=$(ALGOPROF_INJECT=run-start-fail@run0 "$ALGOPROF" "$WORK/alloc.mj" 2>&1)
[ $? -ne 0 ] || fail "ALGOPROF_INJECT: expected non-zero exit: $out"
printf '%s' "$out" | grep -q "error: run 0 failed" \
  || fail "ALGOPROF_INJECT: injected failure not reported: $out"
ALGOPROF_INJECT=run-start-fail@run0 "$ALGOPROF" "$WORK/alloc.mj" \
  --inject "" >"$WORK/inject_override.log" 2>&1 \
  || fail "--inject \"\" did not override ALGOPROF_INJECT (see inject_override.log)"
out=$(ALGOPROF_INJECT=bogus "$ALGOPROF" "$WORK/alloc.mj" 2>&1)
[ $? -ne 0 ] || fail "invalid ALGOPROF_INJECT: expected non-zero exit: $out"
printf '%s' "$out" | grep -q "invalid ALGOPROF_INJECT" \
  || fail "invalid ALGOPROF_INJECT: no diagnostic: $out"

# Malformed --inject specs and policies are rejected up front.
for bad in "heap-oom@metrics" "io-write-fail@run3" "io-write-fail@report:once" \
           "bogus@run1"; do
  out=$("$ALGOPROF" "$WORK/alloc.mj" --inject "$bad" 2>&1)
  rc=$?
  [ "$rc" -ne 0 ] || fail "--inject $bad: expected non-zero exit: $out"
  printf '%s' "$out" | grep -qi "invalid value" \
    || fail "--inject $bad: no diagnostic: $out"
done
out=$("$ALGOPROF" "$WORK/alloc.mj" --policy sometimes 2>&1)
[ $? -ne 0 ] || fail "--policy sometimes: expected non-zero exit: $out"
out=$("$ALGOPROF" "$WORK/alloc.mj" --retries -1 2>&1)
[ $? -ne 0 ] || fail "--retries -1: expected non-zero exit: $out"

if [ "$FAILURES" -ne 0 ]; then
  # The trap removes $WORK: print every captured log and every file
  # the checks above grep or compare first.
  for f in "$WORK"/*.log "$WORK"/degraded.json "$WORK"/serial.json \
           "$WORK"/degraded.algo "$WORK"/serial.algo; do
    [ -e "$f" ] || continue
    echo "--- $(basename "$f")" >&2
    cat "$f" >&2
  done
  echo "$FAILURES resilience cli test(s) failed" >&2
  exit 1
fi
echo "all resilience cli tests passed"
