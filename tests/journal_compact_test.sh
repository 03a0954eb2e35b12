#!/usr/bin/env bash
# Journal boundedness through the real binaries: algoprofd is
# crash-looped (SIGKILL, no drain) five times on the same write-ahead
# journal with size-triggered compaction enabled, running jobs in every
# incarnation. Without compaction the WAL grows with every accepted
# job forever; with it the size must stay bounded by the compaction
# threshold plus one session's churn, in every incarnation, and the
# compacted file must remain a valid journal every daemon can reload.
# Invoked by ctest as `journal_compact_test.sh <algoprofd> <client>`.
set -u

DAEMON=$1
CLIENT=$2
WORK=$(mktemp -d)
DPID=""
STARTS=0
# Every daemon incarnation logs to its own daemon.N.log (daemon.log
# links to the current one), so a failure late in the script can still
# show what an earlier incarnation printed. On failure, every daemon
# log and any sanitizer report in $WORK go to stderr before $WORK is
# removed, so the evidence reaches the ctest output.
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  if [ "$FAILURES" -gt 0 ]; then
    for f in "$WORK"/daemon.*.log \
             $(grep -lE 'Sanitizer|runtime error' "$WORK"/*.err 2>/dev/null); do
      [ -f "$f" ] || continue
      echo "--- ${f##*/} ---" >&2
      cat "$f" >&2
    done
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

SOCK="$WORK/ap.sock"
JOURNAL="$WORK/ap.journal"
CORPUS=seeded_insertion_sort_random
# Small enough that a handful of sessions crosses it: every incarnation
# must compact at least once.
COMPACT_BYTES=512
# The bound the WAL must never exceed when observed between sessions:
# threshold + one uncompacted session's worth of records + slack.
BOUND=4096

start_daemon() {
  rm -f "$SOCK"
  STARTS=$((STARTS + 1))
  ln -sfn "daemon.$STARTS.log" "$WORK/daemon.log"
  "$DAEMON" --socket "$SOCK" --journal "$JOURNAL" --jobs 2 \
    --compact-bytes "$COMPACT_BYTES" > "$WORK/daemon.$STARTS.log" 2>&1 &
  DPID=$!
  for _ in $(seq 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DPID" 2>/dev/null || break
    sleep 0.05
  done
  fail "daemon did not come up: $(cat "$WORK/daemon.log")"
  return 1
}

MAX_SIZE=0
for INCARNATION in 1 2 3 4 5; do
  start_daemon || exit 1
  for JOB in 1 2 3 4 5 6; do
    "$CLIENT" --connect "unix:$SOCK" --corpus "$CORPUS" \
      --seeds "$((JOB * 3)),$((JOB * 5))" --quiet \
      --out "$WORK/out.json" 2> "$WORK/client.err"
    rc=$?
    [ "$rc" -eq 0 ] || fail \
      "incarnation $INCARNATION job $JOB failed (exit $rc): \
$(cat "$WORK/client.err")"
  done
  # Crash hard at an arbitrary journal checkpoint: compaction's
  # tmp+rename cutover must leave a loadable journal behind no matter
  # where the SIGKILL lands.
  kill -9 "$DPID" 2>/dev/null
  wait "$DPID" 2>/dev/null
  DPID=""

  SIZE=$(wc -c < "$JOURNAL")
  [ "$SIZE" -le "$BOUND" ] \
    || fail "incarnation $INCARNATION: journal is $SIZE bytes (> $BOUND)"
  [ "$SIZE" -gt "$MAX_SIZE" ] && MAX_SIZE=$SIZE
  grep -q '^algoprof-journal/1$' "$JOURNAL" \
    || fail "incarnation $INCARNATION: journal lost its header"
done

# 30 accepted jobs crossed the 512-byte threshold many times over; the
# observed maximum proves compaction ran rather than the bound being
# generous (an uncompacted journal would hold every A record payload).
echo "max observed journal size across the crash loop: $MAX_SIZE bytes"
[ "$MAX_SIZE" -le "$BOUND" ] || fail "journal exceeded the bound"

# The final journal still reloads into a daemon that serves fresh jobs.
start_daemon || exit 1
"$CLIENT" --connect "unix:$SOCK" --corpus "$CORPUS" --seeds 4,8 \
  --quiet --out "$WORK/final.json" 2> "$WORK/final.err"
rc=$?
[ "$rc" -eq 0 ] || fail "post-loop submit failed: $(cat "$WORK/final.err")"
kill -TERM "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
DPID=""

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES journal compaction test(s) failed" >&2
  exit 1
fi
echo "all journal compaction tests passed"
