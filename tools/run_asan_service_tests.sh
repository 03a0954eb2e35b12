#!/usr/bin/env bash
# Build and run the `service` test label and the input-sizing suites
# under ASan + UBSan.
#
# The ctest test `asan_service` (registered in tests/CMakeLists.txt for
# non-sanitizer builds) invokes this script, which configures a child
# build inside the current binary dir with -DALGOPROF_ASAN_UBSAN=ON,
# builds the service test binary plus the real daemon/client, and runs
# exactly the service label — the chaos fault schedules, journal
# fuzzing (bit flips, oversized length fields), retained-result
# eviction, graceful drain, and the SIGKILL restart + compaction
# cycles through the real binaries — with the memory checkers armed.
# The journal loader's bounds checks and the daemon's buffer handling
# under partial frames are exactly where ASan/UBSan earn their keep.
#
# Before the service label it runs the input-sizing gtests
# (SnapshotMode, InputTable, MultiMeasure, the AllElements and Eager
# profile goldens, and the shard-merge MergeTest): snapshot traversals
# index their marks and the object->input map by heap object id, so an
# id off by the heap's base or a shard offset reads out of bounds. The
# CostMap tests and the record-path goldens (sampling, streams,
# SameType) run there too: cost maps are sorted vectors merged in place
# from the back, and profiler activations count into pooled slot tables,
# so an index slip there also reads or writes out of bounds. The VM
# suites run there as well (Vm, BytecodeLevel, LoopEvents,
# LoopEventMap): the decode loop keeps every frame's locals and operands
# in one contiguous value stack addressed by raw pointer arithmetic, and
# indexes per-pc loop-event slots, so a wrong frame base, operand-stack
# bound or slot index shows up there. So does the BackHalf suite: the
# shard merge appends each shard node's record columns to the matching
# node, shifts the records' ranges and remaps ids within each range in
# place, and cost combination buckets records into root rows by
# computed offsets, so a range shifted by the wrong length or a slip in
# the bucket offsets reads past a column or into a foreign range. The
# AlgoProfiler and Sampling suites run for the same reason on the write
# side: finalize appends each record's cost, folded-cost and input-use
# ranges to its node's columns and shrinks them in place, and sampled-out
# children fold their costs into a parent's folded range, so a wrong
# range begin or size writes or reads outside the column. `^InputTable\.`
# also selects the snapshot-reuse oracles (`InputTable.SnapshotReuse*`,
# `InputTable.InteriorNodeOfSinglyLinkedListIsNotReused`): a reused
# Eager snapshot reads the marks at `id - base` for the base of an
# earlier traversal, across runs on a recycled heap, so a stale base or
# a missing bound check would read out of bounds.
#
# Usage: run_asan_service_tests.sh <source-dir> <binary-dir> [jobs]
set -euo pipefail

SRC=${1:?usage: run_asan_service_tests.sh <source-dir> <binary-dir> [jobs]}
BIN=${2:?usage: run_asan_service_tests.sh <source-dir> <binary-dir> [jobs]}
JOBS=${3:-$(nproc)}
ASAN_DIR="$BIN/asan"

# Some kernels/containers cannot execute sanitizer binaries (address
# space layout restrictions). Probe first and skip visibly (ctest
# SKIP_RETURN_CODE 77) instead of failing the suite on an environment
# limitation.
PROBE_DIR=$(mktemp -d)
trap 'rm -rf "$PROBE_DIR"' EXIT
printf 'int main() { return 0; }\n' > "$PROBE_DIR/probe.cpp"
if ! c++ -fsanitize=address,undefined "$PROBE_DIR/probe.cpp" \
     -o "$PROBE_DIR/probe" 2>/dev/null || \
   ! "$PROBE_DIR/probe" >/dev/null 2>&1; then
  echo "SKIP: ASan/UBSan is unavailable in this environment" >&2
  exit 77
fi

cmake -S "$SRC" -B "$ASAN_DIR" -DALGOPROF_ASAN_UBSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" \
      --target algoprof_service_tests algoprof_tests \
      algoprof_parallel_tests algoprofd algoprof_client -j "$JOBS"
cd "$ASAN_DIR"
ctest -R '^(SnapshotMode|InputTable|MultiMeasure|MergeTest|CostMap|BackHalf|AlgoProfiler|Sampling)\.|^(Vm|BytecodeLevel|LoopEvents|LoopEventMap)\.|/(AllElements|Eager)Golden\.|/RecordPathGolden' \
      --no-tests=error --output-on-failure -j "$JOBS"
exec ctest -L service --output-on-failure -j "$JOBS"
