//===- obs/Obs.cpp --------------------------------------------------------===//

#include "obs/Obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

using namespace algoprof;
using namespace algoprof::obs;

//===----------------------------------------------------------------------===//
// Names and snapshot arithmetic (built in both ON and OFF modes, so the
// exporters and their tests always link)
//===----------------------------------------------------------------------===//

const char *obs::phaseName(Phase P) {
  switch (P) {
  case Phase::Lex:
    return "lex";
  case Phase::Parse:
    return "parse";
  case Phase::Sema:
    return "sema";
  case Phase::Compile:
    return "compile";
  case Phase::Verify:
    return "verify";
  case Phase::Prepare:
    return "prepare";
  case Phase::Dataflow:
    return "dataflow";
  case Phase::VmRun:
    return "vm_run";
  case Phase::Snapshot:
    return "snapshot";
  case Phase::Grouping:
    return "grouping";
  case Phase::Classify:
    return "classify";
  case Phase::Combine:
    return "combine";
  case Phase::Series:
    return "series";
  case Phase::Fit:
    return "fit";
  case Phase::BuildProfiles:
    return "build_profiles";
  case Phase::ShardRun:
    return "shard_run";
  case Phase::ShardMerge:
    return "shard_merge";
  case Phase::Report:
    return "report";
  }
  return "?";
}

const char *obs::counterName(Counter C) {
  switch (C) {
  case Counter::BytecodesExecuted:
    return "bytecodes_executed";
  case Counter::RunsCompleted:
    return "runs_completed";
  case Counter::HeapObjects:
    return "heap_objects";
  case Counter::TreeNodes:
    return "tree_nodes";
  case Counter::TraversalSteps:
    return "traversal_steps";
  case Counter::SnapshotsReused:
    return "snapshots_reused";
  case Counter::ListenerEvents:
    return "listener_events";
  case Counter::FitEvaluations:
    return "fit_evaluations";
  case Counter::ShardsMerged:
    return "shards_merged";
  case Counter::TraceEventsDropped:
    return "trace_events_dropped";
  case Counter::FaultsInjected:
    return "faults_injected";
  case Counter::RunsRetried:
    return "runs_retried";
  case Counter::RunsQuarantined:
    return "runs_quarantined";
  case Counter::RunsBudgetExceeded:
    return "runs_budget_exceeded";
  case Counter::JobsExecuted:
    return "jobs_executed";
  case Counter::JobsStolen:
    return "jobs_stolen";
  case Counter::CorpusCompiles:
    return "corpus_compiles";
  case Counter::CorpusCompileHits:
    return "corpus_compile_hits";
  case Counter::SessionsAccepted:
    return "sessions_accepted";
  case Counter::SessionsRejected:
    return "sessions_rejected";
  case Counter::SessionsCompleted:
    return "sessions_completed";
  case Counter::BytesStreamed:
    return "bytes_streamed";
  case Counter::DeltasStreamed:
    return "deltas_streamed";
  case Counter::DeltasDropped:
    return "deltas_dropped";
  case Counter::JobsReplayed:
    return "jobs_replayed";
  case Counter::AuthFailures:
    return "auth_failures";
  case Counter::HealthChecks:
    return "health_checks";
  case Counter::ResultsEvicted:
    return "results_evicted";
  }
  return "?";
}

const char *obs::gaugeName(Gauge G) {
  switch (G) {
  case Gauge::RetiredThreads:
    return "retired_threads";
  case Gauge::TraceEventsBuffered:
    return "trace_events_buffered";
  }
  return "?";
}

Snapshot Snapshot::deltaFrom(const Snapshot &Earlier) const {
  Snapshot D;
  D.Gauges = Gauges;
  for (size_t I = 0; I < NumCounters; ++I)
    D.Counters[I] = Counters[I] - Earlier.Counters[I];
  for (size_t I = 0; I < NumPhases; ++I) {
    D.PhaseNs[I] = PhaseNs[I] - Earlier.PhaseNs[I];
    D.PhaseCalls[I] = PhaseCalls[I] - Earlier.PhaseCalls[I];
  }
  return D;
}

#if ALGOPROF_OBS_ENABLED

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// Spans kept per thread before the export cap kicks in. Traces are a
/// debugging artifact, not a production log; the cap bounds memory on
/// pathological span volume and is surfaced via TraceEventsDropped.
constexpr size_t MaxEventsPerThread = 1 << 18;

/// All mutable per-thread state. Plain integers: only the owning thread
/// writes, and only the owning thread (snapshot of self) or the
/// retirement path (after the thread is gone) reads.
struct ThreadState {
  std::array<uint64_t, NumCounters> Counters{};
  std::array<uint64_t, NumPhases> PhaseNs{};
  std::array<uint64_t, NumPhases> PhaseCalls{};
  std::vector<TraceEvent> Events;
  int32_t Track = 0;         ///< Registration ordinal (default lane).
  int32_t TrackOverride = 0; ///< Non-zero inside a ScopedTrack.
};

struct Global {
  std::mutex M;
  ThreadState Retired; ///< Sum of all exited threads (under M).
  uint64_t RetiredThreads = 0; ///< How many have folded in (under M).
  std::map<int32_t, std::string> TrackNames; ///< Under M.
  std::atomic<int32_t> NextTrack{1};
  std::atomic<bool> Tracing{false};
  std::atomic<ClockFn> Clock{nullptr};
};

Global &global() {
  static Global G;
  return G;
}

void foldInto(ThreadState &Dst, const ThreadState &Src) {
  for (size_t I = 0; I < NumCounters; ++I)
    Dst.Counters[I] += Src.Counters[I];
  for (size_t I = 0; I < NumPhases; ++I) {
    Dst.PhaseNs[I] += Src.PhaseNs[I];
    Dst.PhaseCalls[I] += Src.PhaseCalls[I];
  }
  size_t Room = MaxEventsPerThread > Dst.Events.size()
                    ? MaxEventsPerThread - Dst.Events.size()
                    : 0;
  size_t Take = std::min(Room, Src.Events.size());
  Dst.Events.insert(Dst.Events.end(), Src.Events.begin(),
                    Src.Events.begin() + static_cast<ptrdiff_t>(Take));
  Dst.Counters[static_cast<size_t>(Counter::TraceEventsDropped)] +=
      Src.Events.size() - Take;
}

/// The calling thread's state; folds itself into the retired pool on
/// thread exit (always before std::thread::join returns, which is what
/// makes the sweep engine's shard stats visible after the join).
struct TlsHolder {
  ThreadState S;
  TlsHolder() {
    S.Track = global().NextTrack.fetch_add(1, std::memory_order_relaxed);
  }
  ~TlsHolder() {
    Global &G = global();
    std::lock_guard<std::mutex> Lock(G.M);
    foldInto(G.Retired, S);
    G.RetiredThreads += 1;
  }
};

ThreadState &tls() {
  thread_local TlsHolder T;
  return T.S;
}

} // namespace

uint64_t detail::nowNs() {
  if (ClockFn Fn = global().Clock.load(std::memory_order_relaxed))
    return Fn();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void detail::recordPhase(Phase P, uint64_t StartNs, uint64_t EndNs,
                         bool Traced) {
  ThreadState &S = tls();
  size_t I = static_cast<size_t>(P);
  S.PhaseNs[I] += EndNs - StartNs;
  S.PhaseCalls[I] += 1;
  if (!Traced || !global().Tracing.load(std::memory_order_relaxed))
    return;
  if (S.Events.size() >= MaxEventsPerThread) {
    S.Counters[static_cast<size_t>(Counter::TraceEventsDropped)] += 1;
    return;
  }
  TraceEvent E;
  E.P = P;
  E.Track = S.TrackOverride ? S.TrackOverride : S.Track;
  E.StartNs = StartNs;
  E.DurNs = EndNs - StartNs;
  S.Events.push_back(E);
}

int32_t detail::exchangeTrackOverride(int32_t Track) {
  ThreadState &S = tls();
  int32_t Prev = S.TrackOverride;
  S.TrackOverride = Track;
  return Prev;
}

void obs::setClockForTest(ClockFn Fn) {
  global().Clock.store(Fn, std::memory_order_relaxed);
}

void obs::enableTracing(bool On) {
  global().Tracing.store(On, std::memory_order_relaxed);
}

bool obs::tracingEnabled() {
  return global().Tracing.load(std::memory_order_relaxed);
}

void obs::setTrackName(int32_t Track, std::string Name) {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.M);
  G.TrackNames[Track] = std::move(Name);
}

void obs::addCount(Counter C, uint64_t N) {
  tls().Counters[static_cast<size_t>(C)] += N;
}

Snapshot obs::snapshot() {
  Global &G = global();
  ThreadState Sum;
  uint64_t RetiredThreads;
  {
    std::lock_guard<std::mutex> Lock(G.M);
    Sum = G.Retired;
    foldInto(Sum, tls());
    RetiredThreads = G.RetiredThreads;
  }
  Snapshot S;
  S.Gauges[static_cast<size_t>(Gauge::RetiredThreads)] = RetiredThreads;
  S.Gauges[static_cast<size_t>(Gauge::TraceEventsBuffered)] =
      Sum.Events.size();
  S.Counters = Sum.Counters;
  S.PhaseNs = Sum.PhaseNs;
  S.PhaseCalls = Sum.PhaseCalls;
  S.Events = std::move(Sum.Events);
  std::sort(S.Events.begin(), S.Events.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Track != B.Track)
                return A.Track < B.Track;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              if (A.DurNs != B.DurNs)
                return A.DurNs > B.DurNs; // Enclosing span first.
              return static_cast<int>(A.P) < static_cast<int>(B.P);
            });
  {
    std::lock_guard<std::mutex> Lock(G.M);
    S.TrackNames = G.TrackNames;
  }
  return S;
}

void obs::flushThisThread() {
  Global &G = global();
  ThreadState &S = tls();
  std::lock_guard<std::mutex> Lock(G.M);
  foldInto(G.Retired, S);
  // Keep the lane assignments: the thread is still alive and its next
  // span must land on the same trace track. RetiredThreads is *not*
  // bumped — that gauge counts actual thread exits.
  int32_t Track = S.Track;
  int32_t Override = S.TrackOverride;
  S = ThreadState();
  S.Track = Track;
  S.TrackOverride = Override;
}

void obs::resetForTest() {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.M);
  int32_t Track = tls().Track; // Keep the thread's lane id.
  G.Retired = ThreadState();
  G.RetiredThreads = 0;
  G.TrackNames.clear();
  tls() = ThreadState();
  tls().Track = Track;
}

#endif // ALGOPROF_OBS_ENABLED
