#!/usr/bin/env bash
# The job flags through the real binaries: algoprof and algoprof_client
# parse them through one table (src/core/JobOptions.cpp), so the same
# value gets the same verdict from both, with the same "(expected ...)"
# text and exit 2. Invoked by ctest as
#   job_keys_test.sh <algoprof> <algoprof_client>
set -u

ALGOPROF=$1
CLIENT=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0
# No daemon listens here: a job the client accepts fails to connect
# (exit 1), one it rejects never gets that far (exit 2).
NOSOCK="unix:$WORK/no-daemon.sock"

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

# Both binaries reject FLAG VALUE with exit 2 and the same error line.
same_rejection() {
  local flag=$1 value=$2 cli client rc_cli rc_client
  cli=$("$ALGOPROF" "$WORK/ok.mj" "$flag" "$value" 2>&1 >/dev/null)
  rc_cli=$?
  client=$("$CLIENT" --connect "$NOSOCK" --corpus c "$flag" "$value" 2>&1)
  rc_client=$?
  cli=$(printf '%s\n' "$cli" | grep '^error: invalid value')
  [ "$rc_cli" -eq 2 ] || fail "algoprof $flag '$value': exit $rc_cli, want 2"
  [ "$rc_client" -eq 2 ] \
    || fail "algoprof_client $flag '$value': exit $rc_client, want 2"
  printf '%s' "$cli" | grep -q "(expected " \
    || fail "algoprof $flag '$value': no (expected ...) text: $cli"
  [ "$cli" = "$client" ] \
    || fail "$flag '$value': algoprof says '$cli', client says '$client'"
}

# Counts out of range used to wrap in the client (and on the wire):
# --runs 4294967297 ran one run, --retries 5000 passed.
same_rejection --runs 4294967297
same_rejection --runs 3000000000
same_rejection --runs 0
same_rejection --runs 12abc
same_rejection --retries 5000
same_rejection --retries 2147483647
same_rejection --retries -1
same_rejection --seeds 1,,2
same_rejection --input 1,x
same_rejection --policy sometimes
same_rejection --max-heap-bytes -1
same_rejection --deadline-ms 1.5
same_rejection --inject bogus@run1
same_rejection --entry .main
same_rejection --entry Main.
same_rejection --entry Main

# A flag with no value is the same error in both.
cli=$("$ALGOPROF" "$WORK/ok.mj" --runs 2>&1 >/dev/null | grep '^error:')
client=$("$CLIENT" --connect "$NOSOCK" --corpus c --runs 2>&1)
[ "$cli" = "$client" ] || fail "--runs without a value: '$cli' vs '$client'"

# Valid values pass both: algoprof runs, the client gets as far as the
# (absent) daemon. An empty list is the empty list.
for args in "--runs 1000000000" "--retries 1000" "--seeds 4,8" \
            "--entry Main.main" "--policy retry" "--max-heap-bytes 0"; do
  # shellcheck disable=SC2086
  "$CLIENT" --connect "$NOSOCK" --corpus c $args >/dev/null 2>&1
  rc=$?
  [ "$rc" -eq 1 ] || fail "algoprof_client $args: exit $rc, want 1 (no daemon)"
done
"$ALGOPROF" "$WORK/ok.mj" --seeds "" >/dev/null 2>&1 \
  || fail "algoprof --seeds '': rejected"
"$CLIENT" --connect "$NOSOCK" --corpus c --seeds "" >/dev/null 2>&1
[ $? -eq 1 ] || fail "algoprof_client --seeds '': rejected"

# A repeated flag replaces the earlier value: --seeds 4,8 --seeds 12
# profiles seed 12 alone.
"$ALGOPROF" "$WORK/ok.mj" --seeds 4,8 --seeds 12 --format json \
  --out "$WORK/repeated.json" >/dev/null 2>&1 || fail "repeated --seeds run"
"$ALGOPROF" "$WORK/ok.mj" --seeds 12 --format json \
  --out "$WORK/single.json" >/dev/null 2>&1 || fail "single --seeds run"
cmp -s "$WORK/repeated.json" "$WORK/single.json" \
  || fail "--seeds 4,8 --seeds 12 did not profile seed 12 alone"

# The usage text lists every job flag with its range, from the table.
usage=$("$CLIENT" 2>&1)
for text in "--runs N" "an integer in [1, 1000000000] (default 1)" \
            "--retries N" "an integer in [0, 1000] (default 2)"; do
  printf '%s' "$usage" | grep -qF -- "$text" \
    || fail "algoprof_client usage lacks '$text'"
  "$ALGOPROF" 2>&1 | grep -qF -- "$text" \
    || fail "algoprof usage lacks '$text'"
done

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES job-key test(s) failed" >&2
  exit 1
fi
echo "all job-key tests passed"
