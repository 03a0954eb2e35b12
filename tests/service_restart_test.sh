#!/usr/bin/env bash
# Durable-queue restart test through the real binaries: algoprofd is
# killed with SIGKILL, restarted on the same write-ahead journal, and
# must replay the pending job so a reconnecting algoprof_client
# `--resume`s into a final profile byte-identical to a live submission
# of the same job — also with a `--from-delta` cursor (exactly n-k
# deltas, none twice), across a journal compaction (the pending record
# and the id high-water mark survive the rotation), and through a
# SIGTERM graceful drain (exit 0). Invoked by ctest as
# `service_restart_test.sh <algoprofd> <algoprof_client>`.
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
SEEDS=4,8,12,16

start_daemon() {
  # A SIGKILLed daemon leaves its socket file behind; remove it so the
  # readiness probe below sees the NEW daemon's bind, not the corpse.
  # Extra arguments pass through (--compact-bytes for the compaction
  # sections below).
  rm -f "$SOCK"
  STARTS=$((STARTS + 1))
  ln -sfn "daemon.$STARTS.log" "$WORK/daemon.log"
  "$DAEMON" --socket "$SOCK" --journal "$JOURNAL" --jobs 2 "$@" \
    > "$WORK/daemon.$STARTS.log" 2>&1 &
  DPID=$!
  for _ in $(seq 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DPID" 2>/dev/null || break
    sleep 0.05
  done
  fail "daemon did not come up: $(cat "$WORK/daemon.log")"
  return 1
}

# --- Live submission: journaled (A + C records) and completed --------
start_daemon || exit 1
"$CLIENT" --connect "unix:$SOCK" --corpus "$CORPUS" --seeds "$SEEDS" \
  --out "$WORK/fresh.json" 2> "$WORK/fresh.err"
rc=$?
[ "$rc" -eq 0 ] || fail "live submit failed (exit $rc): $(cat "$WORK/fresh.err")"
[ -s "$WORK/fresh.json" ] || fail "live submit wrote no profile"
LIVE_ID=$(sed -n 's/^session \([0-9]*\).*/\1/p' "$WORK/fresh.err")
[ -n "$LIVE_ID" ] || fail "client did not report a session id"

# --- Crash: SIGKILL, no drain, journal left as the crash left it -----
kill -9 "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
DPID=""
grep -q '^algoprof-journal/1$' "$JOURNAL" || fail "journal missing header"
grep -q "^C $LIVE_ID\$" "$JOURNAL" \
  || fail "completed session $LIVE_ID has no C record"

# A job the dead daemon accepted but never finished: an A record with
# no C. Appended by hand — byte-for-byte the record Journal::append
# would have written (docs/service.md documents the format).
PAYLOAD=$(printf 'algoprof-wire/2\ncorpus=%s\nseeds=%s\n' "$CORPUS" "$SEEDS")
# $() strips the payload's trailing newline: the declared length adds
# it back, the first \n below restores it, the second terminates the
# record — byte-for-byte what Journal::appendAccepted writes.
printf 'A 42 %d\n%s\n\n' "$((${#PAYLOAD} + 1))" "$PAYLOAD" >> "$JOURNAL"

# --- Restart on the same journal: the pending job replays ------------
start_daemon || exit 1

# Resume immediately: the daemon must block the resume until the
# in-flight replay finishes, then stream the byte-identical profile.
"$CLIENT" --connect "unix:$SOCK" --resume 42 \
  --out "$WORK/resumed.json" 2> "$WORK/resumed.err"
rc=$?
[ "$rc" -eq 0 ] || fail "resume failed (exit $rc): $(cat "$WORK/resumed.err")"
grep -q "(resumed)" "$WORK/resumed.err" \
  || fail "resume not flagged as resumed: $(cat "$WORK/resumed.err")"
cmp -s "$WORK/fresh.json" "$WORK/resumed.json" \
  || fail "replayed profile differs from the live submission"

# Cursor resume: a client that already saw k=2 of the 4 deltas asks
# for the tail only — exactly n-k delta lines, no run re-streamed,
# and the same byte-identical document.
"$CLIENT" --connect "unix:$SOCK" --resume 42 --from-delta 2 \
  --out "$WORK/cursor.json" 2> "$WORK/cursor.err"
rc=$?
[ "$rc" -eq 0 ] || fail "cursor resume failed (exit $rc): $(cat "$WORK/cursor.err")"
RUNS=$(grep -c '^run ' "$WORK/cursor.err")
[ "$RUNS" -eq 2 ] || fail "from-delta 2 of 4 streamed $RUNS deltas, want 2"
grep -q '^run 2 ' "$WORK/cursor.err" || fail "cursor tail is missing run 2"
grep -q '^run 3 ' "$WORK/cursor.err" || fail "cursor tail is missing run 3"
DUPES=$(grep '^run ' "$WORK/cursor.err" | awk '{print $2}' | sort | uniq -d)
[ -z "$DUPES" ] || fail "cursor resume re-streamed runs: $DUPES"
cmp -s "$WORK/fresh.json" "$WORK/cursor.json" \
  || fail "cursor-resumed profile differs from the live submission"

# Results of sessions completed before the crash are not retained:
# resuming the pre-crash id is a clean unknown-session rejection.
"$CLIENT" --connect "unix:$SOCK" --resume "$LIVE_ID" \
  --out "$WORK/stale.json" 2> "$WORK/stale.err"
rc=$?
[ "$rc" -eq 1 ] || fail "pre-crash resume: expected exit 1, got $rc"
grep -q "unknown-session" "$WORK/stale.err" \
  || fail "pre-crash resume: wrong error: $(cat "$WORK/stale.err")"

# The replay was marked complete on disk: a second restart replays
# nothing and still serves fresh jobs.
grep -q "^C 42\$" "$JOURNAL" || fail "replayed job 42 has no C record"
kill -9 "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
DPID=""
start_daemon || exit 1
"$CLIENT" --connect "unix:$SOCK" --corpus "$CORPUS" --seeds "$SEEDS" \
  --quiet --out "$WORK/after.json" 2> "$WORK/after.err"
rc=$?
[ "$rc" -eq 0 ] || fail "post-restart submit failed: $(cat "$WORK/after.err")"
cmp -s "$WORK/fresh.json" "$WORK/after.json" \
  || fail "post-restart profile differs from the original"

kill -9 "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
DPID=""

# --- Compaction survival: the pending record outlives the rotation ---
# Another crash-orphaned job, then a restart with compaction armed at
# the smallest threshold: the replay completes, compaction rotates the
# WAL, and both the resumable result and the id high-water mark must
# survive it.
SIZE_BEFORE=$(wc -c < "$JOURNAL")
printf 'A 77 %d\n%s\n\n' "$((${#PAYLOAD} + 1))" "$PAYLOAD" >> "$JOURNAL"
start_daemon --compact-bytes 1 || exit 1
"$CLIENT" --connect "unix:$SOCK" --resume 77 \
  --out "$WORK/compacted.json" 2> "$WORK/compacted.err"
rc=$?
[ "$rc" -eq 0 ] \
  || fail "post-compaction resume failed (exit $rc): $(cat "$WORK/compacted.err")"
cmp -s "$WORK/fresh.json" "$WORK/compacted.json" \
  || fail "post-compaction profile differs from the live submission"
# The rotation itself races the resume reply by a few milliseconds.
for _ in $(seq 100); do
  SIZE_AFTER=$(wc -c < "$JOURNAL")
  [ "$SIZE_AFTER" -lt "$SIZE_BEFORE" ] && break
  sleep 0.05
done
[ "$SIZE_AFTER" -lt "$SIZE_BEFORE" ] \
  || fail "journal did not shrink ($SIZE_BEFORE -> $SIZE_AFTER bytes)"
grep -q '^algoprof-journal/1$' "$JOURNAL" \
  || fail "compacted journal lost its header"

# The high-water mark survived the dropped records: a fresh session's
# id must land above every id the compacted-away history ever used.
"$CLIENT" --connect "unix:$SOCK" --corpus "$CORPUS" --seeds "$SEEDS" \
  --out "$WORK/hw.json" 2> "$WORK/hw.err"
rc=$?
[ "$rc" -eq 0 ] || fail "post-compaction submit failed: $(cat "$WORK/hw.err")"
HW_ID=$(sed -n 's/^session \([0-9]*\).*/\1/p' "$WORK/hw.err")
[ -n "$HW_ID" ] && [ "$HW_ID" -gt 77 ] \
  || fail "session id '$HW_ID' reuses compacted-away history (want > 77)"

# --- Graceful drain: SIGTERM finishes cleanly with exit 0 ------------
kill -TERM "$DPID" 2>/dev/null
wait "$DPID"
rc=$?
[ "$rc" -eq 0 ] || fail "SIGTERM drain exited $rc, want 0"
grep -q "drained cleanly" "$WORK/daemon.log" \
  || fail "daemon did not report a clean drain: $(tail -3 "$WORK/daemon.log")"
DPID=""

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES service restart test(s) failed" >&2
  exit 1
fi
echo "all service restart tests passed"
