//===- parallel/SweepEngine.h - Work-stealing profiling sweeps --*- C++-*-===//
///
/// \file
/// Runs the paper's "set of program runs" (Sec. 3.5) as a dynamically
/// scheduled sweep: each run is one job on a work-stealing pool
/// (parallel/JobSystem.h), executing on a worker thread with a private
/// vm::Interpreter + AlgoProfiler over the shared immutable
/// CompiledProgram. A streaming reducer folds the per-run shards —
/// RepetitionTrees with their record columns, and InputTables —
/// strictly in run-index order, never in completion order: finished
/// shards are marked ready, and whichever worker finishes a run tries
/// to advance the merge cursor over the longest prefix of consecutive
/// ready shards. Tree
/// nodes align by static RepKey (method/loop ids), and input ids remap
/// through InputTable::merge's replay of the serial identification
/// decisions. No heap-object id crosses a merge: the merged table never
/// identifies, so it keeps none. The observable result —
/// buildProfilesFrom output: labels, classifications, series points,
/// fitted formulas — is identical to a serial ProfileSession over the
/// same seed order, regardless of worker count, stealing, or any
/// schedule perturbation.
/// See docs/parallel_sweeps.md for the determinism argument and the
/// AllElements/sampling caveats.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_PARALLEL_SWEEPENGINE_H
#define ALGOPROF_PARALLEL_SWEEPENGINE_H

#include "core/Session.h"
#include "parallel/JobSystem.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace algoprof {
namespace parallel {

/// What the streaming merge just folded in: one completed run, reported
/// the moment its shard merged (or was quarantined). Deltas arrive
/// strictly in run-index order — the same order the final profile's
/// serial replay uses — which is what lets a daemon stream per-run
/// progress to a client while guaranteeing the finished profile is
/// byte-identical to the serial session's.
struct RunDelta {
  int64_t Run = -1;      ///< Global run index (across sweep() calls).
  size_t Index = 0;      ///< Run's index within its batch.
  size_t BatchRuns = 0;  ///< Total runs in the batch.
  vm::RunStatus Status = vm::RunStatus::Ok;
  std::string Budget;    ///< Tripped budget, empty for clean runs.
  int Attempts = 1;      ///< Executions, retries included.
  bool Quarantined = false;
  int64_t MergedRuns = 0; ///< Batch runs merged so far, this one included.
  /// Total repetitions recorded in the accumulated tree after this
  /// merge (unchanged for quarantined runs). The incremental view a
  /// streaming consumer needs: this delta's contribution is the
  /// difference from the previous RunDelta's value.
  int64_t TreeRepetitions = 0;
};

/// Per-run results of one sweep, in seed (run-index) order, plus the
/// degraded-run bookkeeping added by the resilience layer.
struct SweepResult {
  std::vector<vm::RunResult> Runs;
  /// One record per run whose *final* attempt failed, in run-index
  /// order (a run that failed and then succeeded on retry does not
  /// appear; obs runs_retried counts it). FailureInfo::Run is the
  /// global run index across successive sweep() calls.
  std::vector<resilience::FailureInfo> Failures;
  /// The policy the sweep ran under (copied from SessionOptions).
  resilience::FailurePolicy Policy = resilience::FailurePolicy::Fail;
  /// Runs merged into the accumulated profile by this sweep.
  int64_t MergedRuns = 0;
  /// Work-stealing pool counters for this sweep. Populated only when
  /// the engine owned the pool (sweep / sweepWithInputs); empty when
  /// the runs were enqueued on an external pool (the corpus runner
  /// reports its shared pool's stats instead).
  PoolStats Pool;

  /// Every run succeeded (final attempts): the sweep is not degraded.
  bool allOk() const {
    for (const vm::RunResult &R : Runs)
      if (!R.ok())
        return false;
    return !Runs.empty();
  }

  /// The merged profile is well-defined, possibly degraded: at least
  /// one run merged and every failed run was quarantined out (so the
  /// profile equals a serial session over the survivors). Under the
  /// Fail policy nothing is quarantined, so usable() == allOk().
  bool usable() const {
    if (Runs.empty() || MergedRuns == 0)
      return false;
    for (const resilience::FailureInfo &F : Failures)
      if (!F.Quarantined)
        return false;
    return true;
  }
};

/// A dynamically scheduled, deterministic multi-run profiling engine.
/// It is configured entirely by the same prof::SessionOptions a serial
/// session takes — Jobs picks the worker count, Seeds/Runs/Input the
/// run plan. Every run gets a fresh interpreter, profiler, and private
/// IoChannels (no I/O state is shared between threads). Successive
/// sweep() calls keep accumulating into the same merged tree/inputs,
/// mirroring repeated ProfileSession::run calls.
///
/// Two driving modes:
///  - sweep()/sweepWithInputs(): the engine spins up its own pool,
///    runs the plan, and returns the finished result.
///  - enqueueSweep()/finishEnqueued(): the caller owns a shared pool
///    (corpus batches: many engines, one pool) and the engine only
///    contributes jobs. Call finishEnqueued() after the pool's wait()
///    to drain the merge cursor; results are undefined before that.
class SweepEngine {
public:
  explicit SweepEngine(const prof::CompiledProgram &CP,
                       prof::SessionOptions Opts = prof::SessionOptions());
  ~SweepEngine();

  /// Runs static no-arg "Cls.Method" per the options' run plan: once
  /// per SessionOptions::Seeds entry (input channel pre-loaded with the
  /// seed), or SessionOptions::Runs times with SessionOptions::Input
  /// when Seeds is empty. Workers execute runs in arbitrary order; the
  /// reduction happens incrementally, in run-index order.
  SweepResult sweep(const std::string &Cls, const std::string &Method);

  /// Generalized sweep: one run per \p RunInputs entry, each run handed
  /// a private copy of its channels (arbitrary multi-value inputs, where
  /// seeds are single-value). Worker count still comes from
  /// SessionOptions::Jobs.
  SweepResult sweepWithInputs(const std::string &Cls,
                              const std::string &Method,
                              const std::vector<vm::IoChannels> &RunInputs);

  /// Submits this engine's run jobs onto \p Pool without blocking.
  /// \p Out must outlive finishEnqueued() and is filled incrementally;
  /// read it only after finishEnqueued() returns. One batch may be in
  /// flight per engine at a time.
  void enqueueSweep(JobSystem &Pool, const std::string &Cls,
                    const std::string &Method,
                    const std::vector<vm::IoChannels> &RunInputs,
                    SweepResult *Out);

  /// Blocks until every run of the in-flight enqueueSweep batch has
  /// executed (not necessarily merged — finishEnqueued does that).
  /// Unlike JobSystem::wait() this waits for *this engine's* jobs only,
  /// which is what lets many sessions share one pool: each session
  /// waits for its own batch while the pool keeps executing everyone
  /// else's. No-op when no batch is in flight.
  void waitEnqueued();

  /// Completes an enqueueSweep batch: merges any shards the workers
  /// left behind (strictly in run-index order) and releases the batch.
  /// Call only after the pool's wait() — or this engine's
  /// waitEnqueued() — returned.
  void finishEnqueued();

  /// Observes every merged (or quarantined) run. Invoked from inside
  /// the merge — on whichever worker advanced the cursor, or on the
  /// finishEnqueued() caller — serialized by the merge lock and
  /// strictly in run-index order. Because the merge lock is held, the
  /// observer may READ the accumulated state — tree() / inputs() /
  /// buildProfiles() — and sees exactly the prefix merged so far (the
  /// daemon's v2 deltas refresh fitted curves this way). It must not
  /// re-enter mutating engine calls. It may block briefly (the daemon's
  /// per-session send buffer), which only delays this engine's merge,
  /// not run execution.
  using RunObserver = std::function<void(const RunDelta &)>;

  /// Installs \p Obs for subsequent sweeps (null to clear). Set before
  /// enqueueSweep; not thread-safe against an in-flight batch.
  void setRunObserver(RunObserver Obs) { Observer = std::move(Obs); }

  /// Arms a seeded schedule perturbation for subsequent own-pool
  /// sweeps (test hook; not part of SessionOptions, so option-parity
  /// with the serial session is unaffected). For external pools, pass
  /// the perturbation to the pool's constructor instead.
  void setPerturbationForTest(SchedulePerturbation P) { Perturb = P; }

  /// The options this engine was built from (serial-vs-sweep parity is
  /// asserted against ProfileSession::options() in ParallelSweepTest).
  const prof::SessionOptions &options() const { return Opts; }

  /// The merged repetition tree / input table accumulated so far.
  const prof::RepetitionTree &tree() const;
  const prof::InputTable &inputs() const;

  /// Full profile pipeline over the merged state (same code path as
  /// ProfileSession::buildProfiles).
  std::vector<prof::AlgorithmProfile>
  buildProfiles(prof::GroupingStrategy Strategy =
                    prof::GroupingStrategy::CommonInput) const;

private:
  struct Batch;

  void startBatch(JobSystem &Pool, int32_t Entry,
                  const std::vector<vm::IoChannels> &RunInputs,
                  SweepResult *Out);
  void runOne(Batch &B, size_t I);
  void mergeShard(Batch &B, size_t I);
  void drainReady(Batch &B, bool Blocking);

  const prof::CompiledProgram &CP;
  prof::SessionOptions Opts;
  vm::InstrumentationPlan Plan;
  /// The merge target. Never attached to an interpreter: its tree and
  /// inputs are populated exclusively by the reducer.
  std::unique_ptr<prof::AlgoProfiler> Acc;
  /// Runs enqueued so far; numbers the obs trace track of each shard so
  /// successive sweeps keep extending the same per-shard lanes.
  int64_t TotalRuns = 0;
  /// Test-only schedule randomization for own-pool sweeps.
  SchedulePerturbation Perturb;
  /// Streaming per-run callback; see setRunObserver.
  RunObserver Observer;
  /// The in-flight enqueueSweep batch, if any.
  std::shared_ptr<Batch> Active;
};

} // namespace parallel
} // namespace algoprof

#endif // ALGOPROF_PARALLEL_SWEEPENGINE_H
