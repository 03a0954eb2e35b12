#!/usr/bin/env bash
# Build and run the `parallel` test label under ThreadSanitizer.
#
# This is the load-bearing form of the ALGOPROF_TSAN option: the ctest
# test `tsan_parallel` (registered in tests/CMakeLists.txt for
# non-sanitizer builds) invokes this script, which configures a child
# build inside the current binary dir with -DALGOPROF_TSAN=ON, builds
# the parallel and service test binaries plus the real daemon/client,
# and runs exactly the thread-heavy labels — the work-stealing pool,
# the streaming shard merges, the 100+ perturbed-schedule property
# tests, and the daemon's concurrent streamed sessions including the
# TCP+auth transport, slow-client backpressure, and the journal
# replay/resume paths (ServiceTest.cpp) and the kill -9 restart cycle
# (service_restart) — with the race detector armed.
#
# Usage: run_tsan_tests.sh <source-dir> <binary-dir> [jobs]
set -euo pipefail

SRC=${1:?usage: run_tsan_tests.sh <source-dir> <binary-dir> [jobs]}
BIN=${2:?usage: run_tsan_tests.sh <source-dir> <binary-dir> [jobs]}
JOBS=${3:-$(nproc)}
TSAN_DIR="$BIN/tsan"

# Some kernels/containers cannot execute TSan binaries at all (address
# space layout restrictions). Probe first and skip visibly (ctest
# SKIP_RETURN_CODE 77) instead of failing the suite on an environment
# limitation.
PROBE_DIR=$(mktemp -d)
trap 'rm -rf "$PROBE_DIR"' EXIT
printf 'int main() { return 0; }\n' > "$PROBE_DIR/probe.cpp"
if ! c++ -fsanitize=thread "$PROBE_DIR/probe.cpp" -o "$PROBE_DIR/probe" \
     2>/dev/null || ! "$PROBE_DIR/probe" >/dev/null 2>&1; then
  echo "SKIP: ThreadSanitizer is unavailable in this environment" >&2
  exit 77
fi

cmake -S "$SRC" -B "$TSAN_DIR" -DALGOPROF_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" \
      --target algoprof_parallel_tests algoprof_service_tests \
               algoprofd algoprof_client -j "$JOBS"
cd "$TSAN_DIR"
# `parallel` plus `service`: the daemon multiplexes concurrent sessions
# onto one shared pool and streams from whichever thread advances the
# merge — exactly the cross-thread traffic TSan exists to check. The
# service label also covers TCP auth, backpressure policies, and
# journal replay, plus the restart cycle through the real binaries.
exec ctest -L 'parallel|service' --output-on-failure -j "$JOBS"
