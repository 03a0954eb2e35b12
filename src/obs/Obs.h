//===- obs/Obs.h - Self-observability registry ------------------*- C++-*-===//
///
/// \file
/// AlgoProf's own measurement substrate: a low-overhead registry of
/// counters and phase timers that instruments the profiler itself —
/// frontend, VM, listener, input sizing, sweep shards, curve fitting —
/// so perf work on the pipeline can attribute time to a phase instead
/// of a wall-clock blob (docs/observability.md).
///
/// Design constraints, in order:
///  1. Compile-time no-op. Built with `-DALGOPROF_OBS=OFF` every call
///     below is an empty inline function; the instrumentation sites
///     stay in the source and the optimizer deletes them.
///  2. Thread-safe without hot-path synchronization. All increments go
///     to plain (non-atomic) thread-local state. A thread's state is
///     folded into a mutex-guarded shared pool when the thread exits —
///     or whenever the thread calls flushThisThread(), which is how
///     long-lived pool workers publish completed work without retiring
///     (parallel::JobSystem flushes after every job, so a live
///     `/metrics` scrape from the daemon sees worker counters mid-pool-
///     lifetime). snapshot() reads the shared pool plus the *calling
///     thread's* own state; only another thread's *in-flight* work is
///     invisible, which is what keeps the registry TSan-clean.
///  3. Deterministic tests. The clock is injectable (setClockForTest),
///     so trace/metrics golden files are byte-stable.
///
/// Two instrumentation primitives:
///  - ScopedTimer: accumulates elapsed time into a phase (aggregate
///    only). Use in per-invocation hot spots.
///  - ScopedSpan: like ScopedTimer, and additionally records a trace
///    event (when tracing is enabled) for the Chrome trace-event
///    export (obs/TraceExport.h). Use for coarse pipeline phases.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_OBS_OBS_H
#define ALGOPROF_OBS_OBS_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace algoprof {
namespace obs {

/// The instrumented pipeline phases. One span track per phase name in
/// the Chrome trace export; one labeled series per phase in the
/// Prometheus snapshot.
enum class Phase : uint8_t {
  Lex,           ///< frontend: token stream production.
  Parse,         ///< frontend: AST construction.
  Sema,          ///< frontend: semantic analysis.
  Compile,       ///< bytecode: AST -> module.
  Verify,        ///< bytecode: module verification.
  Prepare,       ///< vm: CFG/loops/call-graph/recursive-type analyses.
  Dataflow,      ///< analysis: index dataflow (grouping extension).
  VmRun,         ///< vm: one interpreter run (profiled or plain).
  Snapshot,      ///< core: InputTable full snapshot traversals.
  Grouping,      ///< core: repetition tree -> algorithms.
  Classify,      ///< core: per-algorithm classification.
  Combine,       ///< core: cost combination into root invocations.
  Series,        ///< core: pooled series extraction.
  Fit,           ///< fitting: model family evaluation + selection.
  BuildProfiles, ///< core: the whole profile pipeline back half.
  ShardRun,      ///< parallel: one sweep shard's profiled run.
  ShardMerge,    ///< parallel: run-order reduction of shards.
  Report,        ///< report: rendering/export of any reporter.
};
constexpr size_t NumPhases = static_cast<size_t>(Phase::Report) + 1;

/// Stable snake_case name ("vm_run"), used by both exporters.
const char *phaseName(Phase P);

/// Volume counters: how much work the pipeline did, independent of the
/// clock.
enum class Counter : uint8_t {
  BytecodesExecuted, ///< VM instructions retired.
  RunsCompleted,     ///< Interpreter runs finished (any status).
  HeapObjects,       ///< Objects + arrays allocated.
  TreeNodes,         ///< Repetition tree nodes created (merges included).
  TraversalSteps,    ///< Objects/slots visited by input-size snapshots.
  SnapshotsReused,   ///< Structure snapshots answered by the last traversal.
  ListenerEvents,    ///< Hot profiler callbacks delivered.
  FitEvaluations,    ///< Candidate models evaluated by the fitter.
  ShardsMerged,      ///< Sweep shards folded into an accumulator.
  TraceEventsDropped, ///< Spans discarded by the per-thread event cap.
  FaultsInjected,     ///< Armed fault-plan sites that fired.
  RunsRetried,        ///< Failed runs re-executed under the retry policy.
  RunsQuarantined,    ///< Runs excluded from a degraded merge.
  RunsBudgetExceeded, ///< Runs ended by a heap-byte/deadline budget.
  JobsExecuted,       ///< Jobs run by the work-stealing pool's workers.
  JobsStolen,         ///< Jobs a worker took from another worker's deque.
  CorpusCompiles,     ///< Programs compiled by the corpus compile cache.
  CorpusCompileHits,  ///< Compile-cache requests served without compiling.
  SessionsAccepted,   ///< Daemon job requests admitted past the quotas.
  SessionsRejected,   ///< Daemon job requests refused (protocol error,
                      ///< quota, or the concurrent-session cap).
  SessionsCompleted,  ///< Daemon sessions that streamed a final profile.
  BytesStreamed,      ///< Frame payload bytes the daemon wrote to clients.
  DeltasStreamed,     ///< RunDelta frames handed to client send buffers.
  DeltasDropped,      ///< RunDelta frames shed by slow-client backpressure.
  JobsReplayed,       ///< Journaled jobs re-executed after a daemon restart.
  AuthFailures,       ///< TCP jobs refused for a bad or missing auth token.
  HealthChecks,       ///< GET /healthz and /readyz probes answered.
  ResultsEvicted,     ///< Retained session results dropped by byte/TTL bounds.
};
constexpr size_t NumCounters =
    static_cast<size_t>(Counter::ResultsEvicted) + 1;

/// Stable snake_case name ("bytecodes_executed").
const char *counterName(Counter C);

/// Gauges: point-in-time levels, sampled when a snapshot is taken
/// (never written on hot paths).
enum class Gauge : uint8_t {
  RetiredThreads,      ///< Threads folded into the retired pool so far.
  TraceEventsBuffered, ///< Span events held for the next trace export.
};
constexpr size_t NumGauges =
    static_cast<size_t>(Gauge::TraceEventsBuffered) + 1;

/// Stable snake_case name ("retired_threads").
const char *gaugeName(Gauge G);

/// One completed span, for the Chrome trace export. Track is a trace
/// lane: by default the recording thread's registration ordinal; sweep
/// shards override it so every shard gets its own named track
/// regardless of which worker thread ran it.
struct TraceEvent {
  Phase P = Phase::Lex;
  int32_t Track = 0;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
};

/// A consistent copy of the registry: retired threads plus the calling
/// thread. Live *other* threads are excluded by design (see the
/// thread-safety note in the file comment).
struct Snapshot {
  std::array<uint64_t, NumCounters> Counters{};
  std::array<uint64_t, NumPhases> PhaseNs{};
  std::array<uint64_t, NumPhases> PhaseCalls{};
  std::array<uint64_t, NumGauges> Gauges{};
  /// Sorted by (Track, StartNs, DurNs, P) for deterministic export.
  std::vector<TraceEvent> Events;
  std::map<int32_t, std::string> TrackNames;

  /// Counter/timer difference vs an earlier snapshot (events and track
  /// names are not carried over, and gauges — levels, not flows — keep
  /// this snapshot's values); how benchmarks attribute one
  /// configuration's work.
  Snapshot deltaFrom(const Snapshot &Earlier) const;
};

} // namespace obs
} // namespace algoprof

#if !defined(ALGOPROF_OBS_ENABLED)
#define ALGOPROF_OBS_ENABLED 1
#endif

#if ALGOPROF_OBS_ENABLED

namespace algoprof {
namespace obs {

/// Nanosecond monotonic clock source. Null restores steady_clock.
using ClockFn = uint64_t (*)();
void setClockForTest(ClockFn Fn);

/// Span recording is off by default (counters/timers are always on);
/// the CLI's --trace enables it before any work runs.
void enableTracing(bool On);
bool tracingEnabled();

/// Names a trace track ("shard 3"); exported as Chrome thread_name
/// metadata.
void setTrackName(int32_t Track, std::string Name);

/// Adds \p N to counter \p C (calling thread's state; wait-free).
void addCount(Counter C, uint64_t N = 1);

/// Merges retired threads + the calling thread into one view.
Snapshot snapshot();

/// Folds the calling thread's state into the registry's shared pool and
/// clears the thread-local view (the trace lane assignment survives).
/// Long-lived threads that never retire — pool workers, daemon service
/// threads — call this at work-item boundaries so a snapshot taken from
/// *another* thread (a live `/metrics` scrape) sees their completed
/// work instead of undercounting until thread exit. parallel::JobSystem
/// workers flush after every job.
void flushThisThread();

/// Clears everything, including the calling thread's state. Test-only:
/// callers must guarantee no other instrumented thread is running.
void resetForTest();

namespace detail {
uint64_t nowNs();
void recordPhase(Phase P, uint64_t StartNs, uint64_t EndNs, bool Traced);
int32_t exchangeTrackOverride(int32_t Track);
} // namespace detail

/// Accumulates elapsed wall time into \p P. Aggregate only — never
/// emits a trace event, so it is safe in per-invocation hot spots.
class ScopedTimer {
public:
  explicit ScopedTimer(Phase P) : P(P), Start(detail::nowNs()) {}
  ~ScopedTimer() { detail::recordPhase(P, Start, detail::nowNs(), false); }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Phase P;
  uint64_t Start;
};

/// ScopedTimer plus a trace event when tracing is enabled. Use for
/// coarse phases (compile stages, runs, shards, report rendering).
class ScopedSpan {
public:
  explicit ScopedSpan(Phase P) : P(P), Start(detail::nowNs()) {}
  ~ScopedSpan() { detail::recordPhase(P, Start, detail::nowNs(), true); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Phase P;
  uint64_t Start;
};

/// Redirects the calling thread's trace events to \p Track for the
/// scope's lifetime (sweep shards: one track per run index).
class ScopedTrack {
public:
  explicit ScopedTrack(int32_t Track)
      : Prev(detail::exchangeTrackOverride(Track)) {}
  ~ScopedTrack() { detail::exchangeTrackOverride(Prev); }
  ScopedTrack(const ScopedTrack &) = delete;
  ScopedTrack &operator=(const ScopedTrack &) = delete;

private:
  int32_t Prev;
};

} // namespace obs
} // namespace algoprof

#else // !ALGOPROF_OBS_ENABLED

// The no-op surface: identical signatures, empty bodies, zero state.
// Instrumentation sites compile to nothing.
namespace algoprof {
namespace obs {

using ClockFn = uint64_t (*)();
inline void setClockForTest(ClockFn) {}
inline void enableTracing(bool) {}
inline bool tracingEnabled() { return false; }
inline void setTrackName(int32_t, std::string) {}
inline void addCount(Counter, uint64_t = 1) {}
inline Snapshot snapshot() { return Snapshot(); }
inline void flushThisThread() {}
inline void resetForTest() {}

class ScopedTimer {
public:
  explicit ScopedTimer(Phase) {}
};
class ScopedSpan {
public:
  explicit ScopedSpan(Phase) {}
};
class ScopedTrack {
public:
  explicit ScopedTrack(int32_t) {}
};

} // namespace obs
} // namespace algoprof

#endif // ALGOPROF_OBS_ENABLED

#endif // ALGOPROF_OBS_OBS_H
