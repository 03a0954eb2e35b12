//===- parallel/SweepEngine.cpp -------------------------------------------===//

#include "parallel/SweepEngine.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>

using namespace algoprof;
using namespace algoprof::parallel;
using namespace algoprof::prof;

namespace {
/// Obs: every run gets its own trace track, numbered by cumulative run
/// index so repeated sweeps extend the same lanes. ShardTrackBase keeps
/// shard lanes clear of per-thread ordinals and worker lanes.
constexpr int32_t ShardTrackBase = 1000;
} // namespace

/// One in-flight enqueueSweep batch: the per-run shards, the streaming
/// merge cursor, and the synchronization that lets *any* worker advance
/// the merge as soon as the next run in index order is done.
struct SweepEngine::Batch {
  /// Everything one run leaves behind for the reducer.
  struct Shard {
    std::unique_ptr<AlgoProfiler> Prof; ///< Null when startup was aborted.
    vm::RunResult Result;
    int Attempts = 1;
  };

  std::vector<Shard> Shards;
  std::vector<vm::IoChannels> Inputs;
  SweepResult *Out = nullptr;
  int64_t FirstRunIndex = 0;
  int32_t Entry = -1;

  /// Guards Ready, NextMerge, and DoneRuns — the "which shards are
  /// done / how far has the merge advanced" bookkeeping. Held only for
  /// flag flips.
  std::mutex ReadyMu;
  std::vector<char> Ready;
  size_t NextMerge = 0;
  /// Runs fully executed (all attempts). DoneCv fires when the count
  /// reaches the batch size — what waitEnqueued() sleeps on.
  size_t DoneRuns = 0;
  std::condition_variable DoneCv;

  /// Serializes the merge itself (the engine's Acc / Out writes).
  /// Workers try_lock it: whoever wins drains the ready prefix; losers
  /// just return — their shard will be picked up by the winner or by
  /// the final blocking drain in finishEnqueued().
  std::mutex DrainMu;
};

SweepEngine::SweepEngine(const CompiledProgram &CP, SessionOptions Opts)
    : CP(CP), Opts(Opts),
      Plan(makeInstrumentationPlan(CP, Opts.AllMethodsPlan)),
      Acc(std::make_unique<AlgoProfiler>(CP.Prep, Opts.Profile)) {}

SweepEngine::~SweepEngine() = default;

const RepetitionTree &SweepEngine::tree() const { return Acc->tree(); }
const InputTable &SweepEngine::inputs() const { return Acc->inputs(); }

std::vector<AlgorithmProfile>
SweepEngine::buildProfiles(GroupingStrategy Strategy) const {
  return buildProfilesFrom(Acc->tree(), Acc->inputs(), CP, Strategy);
}

SweepResult SweepEngine::sweep(const std::string &Cls,
                               const std::string &Method) {
  return sweepWithInputs(Cls, Method,
                         runInputs(Opts.Seeds, Opts.Runs, Opts.Input));
}

SweepResult
SweepEngine::sweepWithInputs(const std::string &Cls,
                             const std::string &Method,
                             const std::vector<vm::IoChannels> &RunInputs) {
  SweepResult Out;
  Out.Policy = Opts.Policy;
  if (RunInputs.empty())
    return Out;

  unsigned Workers = std::min<unsigned>(
      workerCount(Opts.Jobs), static_cast<unsigned>(RunInputs.size()));

  {
    JobSystem Pool(Workers, Perturb);
    enqueueSweep(Pool, Cls, Method, RunInputs, &Out);
    Pool.wait();
    finishEnqueued();
    Out.Pool = Pool.stats();
    // Workers flushed their obs state after each job, so callers may
    // snapshot as soon as this returns.
  }
  return Out;
}

void SweepEngine::enqueueSweep(JobSystem &Pool, const std::string &Cls,
                               const std::string &Method,
                               const std::vector<vm::IoChannels> &RunInputs,
                               SweepResult *Out) {
  assert(!Active && "one enqueueSweep batch in flight per engine");
  Out->Policy = Opts.Policy;
  if (RunInputs.empty())
    return;
  Out->Runs.resize(RunInputs.size());

  int32_t Entry = CP.entryMethod(Cls, Method);
  if (Entry < 0) {
    for (vm::RunResult &R : Out->Runs) {
      R.Status = vm::RunStatus::Trapped;
      R.TrapMessage = "no static no-arg method " + Cls + "." + Method;
    }
    return;
  }
  startBatch(Pool, Entry, RunInputs, Out);
}

void SweepEngine::startBatch(JobSystem &Pool, int32_t Entry,
                             const std::vector<vm::IoChannels> &RunInputs,
                             SweepResult *Out) {
  size_t NumRuns = RunInputs.size();
  auto B = std::make_shared<Batch>();
  B->Shards.resize(NumRuns);
  B->Inputs = RunInputs;
  B->Out = Out;
  B->FirstRunIndex = TotalRuns;
  B->Entry = Entry;
  B->Ready.assign(NumRuns, 0);
  TotalRuns += static_cast<int64_t>(NumRuns);

  if (obs::tracingEnabled())
    for (size_t I = 0; I < NumRuns; ++I) {
      int64_t RunIndex = B->FirstRunIndex + static_cast<int64_t>(I);
      obs::setTrackName(ShardTrackBase + static_cast<int32_t>(RunIndex),
                        "shard " + std::to_string(RunIndex));
    }

  Active = B;
  for (size_t I = 0; I < NumRuns; ++I)
    Pool.submit([this, B, I] {
      runOne(*B, I);
      // Whoever finishes a run tries to advance the merge. try_lock
      // only: a worker never stalls behind another's merge — at worst
      // the shard waits for the next finisher or the final drain.
      drainReady(*B, /*Blocking=*/false);
    });
}

/// Executes run \p I on the calling worker: a fresh interpreter and
/// profiler per attempt, fault injection and the bounded retry policy
/// exactly as the serial session applies them. Fully private — no
/// engine state is touched, so scheduling cannot influence any shard's
/// contents.
void SweepEngine::runOne(Batch &B, size_t I) {
  int64_t GlobalRun = B.FirstRunIndex + static_cast<int64_t>(I);
  obs::ScopedTrack Track(ShardTrackBase + static_cast<int32_t>(GlobalRun));
  obs::ScopedSpan Span(obs::Phase::ShardRun);
  Batch::Shard &S = B.Shards[I];
  // Retry policy: bounded re-execution on a fresh interpreter with
  // the same inputs. Any other policy takes exactly one attempt.
  const int MaxAttempts = Opts.Policy == resilience::FailurePolicy::Retry
                              ? std::max(1, Opts.MaxAttempts)
                              : 1;
  for (int Attempt = 0;; ++Attempt) {
    S.Attempts = Attempt + 1;
    if (Opts.Faults.fires(resilience::FaultSite::RunStart, GlobalRun,
                          Attempt)) {
      // Startup abort: the run dies before the interpreter touches
      // anything; no profiler state exists to merge.
      obs::addCount(obs::Counter::FaultsInjected);
      S.Prof.reset();
      S.Result = vm::RunResult();
      S.Result.Status = vm::RunStatus::Trapped;
      S.Result.Injected = true;
      S.Result.TrapMessage =
          "injected run-start failure for run " + std::to_string(GlobalRun);
    } else {
      vm::RunOptions RO = Opts.Run;
      if (Opts.Faults.fires(resilience::FaultSite::HeapOom, GlobalRun,
                            Attempt))
        RO.InjectHeapOomAtAlloc = 1;
      vm::Interpreter Interp(CP.Prep);
      S.Prof = std::make_unique<AlgoProfiler>(CP.Prep, Opts.Profile);
      vm::IoChannels Io = B.Inputs[I];
      S.Result = Interp.run(B.Entry, S.Prof.get(), Plan, Io, RO);
      // The interpreter (and its heap) dies here; the profiler's
      // id-keyed state stays valid because nothing dereferences
      // heap objects after a run ends.
    }
    if (S.Result.ok() || Attempt + 1 >= MaxAttempts)
      break;
    obs::addCount(obs::Counter::RunsRetried);
  }
  bool BatchDone;
  {
    std::lock_guard<std::mutex> Lock(B.ReadyMu);
    B.Ready[I] = 1;
    B.DoneRuns += 1;
    BatchDone = B.DoneRuns == B.Shards.size();
  }
  if (BatchDone)
    B.DoneCv.notify_all();
}

/// Folds shard \p I into the accumulator. Caller holds DrainMu; the
/// shard itself is safely published by the ReadyMu handshake in
/// runOne/drainReady.
///
/// Strictly in run-index order: input ids remap through the
/// serial-replay merge. Quarantine decisions also happen here, not in
/// workers: a quarantined run is excluded from the merge, so the
/// accumulated profile is exactly what a serial session over the
/// surviving runs would build. Under the
/// Fail policy nothing is quarantined (legacy behavior: failed runs'
/// partial state still merges and the caller decides).
void SweepEngine::mergeShard(Batch &B, size_t I) {
  obs::ScopedSpan MergeSpan(obs::Phase::ShardMerge);
  Batch::Shard &S = B.Shards[I];
  B.Out->Runs[I] = S.Result;
  int64_t GlobalRun = B.FirstRunIndex + static_cast<int64_t>(I);
  bool Failed = !S.Result.ok();
  bool Quarantine = Failed && Opts.Policy != resilience::FailurePolicy::Fail;
  if (Failed) {
    resilience::FailureInfo FI;
    FI.Run = GlobalRun;
    FI.Status = S.Result.Status;
    FI.Attempts = S.Attempts;
    FI.Budget = S.Result.Budget;
    FI.Message = S.Result.TrapMessage;
    FI.Quarantined = Quarantine;
    FI.Injected = S.Result.Injected;
    B.Out->Failures.push_back(std::move(FI));
  }
  if (Quarantine) {
    obs::addCount(obs::Counter::RunsQuarantined);
  } else if (S.Prof) {
    std::vector<int32_t> Remap = Acc->inputs().merge(S.Prof->inputs());
    Acc->tree().merge(std::move(S.Prof->tree()), Remap);
    ++B.Out->MergedRuns;
    obs::addCount(obs::Counter::ShardsMerged);
  }
  if (Observer) {
    // Streamed under DrainMu, so deltas leave in run-index order —
    // exactly the order the serial replay merges in.
    RunDelta D;
    D.Run = GlobalRun;
    D.Index = I;
    D.BatchRuns = B.Shards.size();
    D.Status = S.Result.Status;
    D.Budget = S.Result.Budget;
    D.Attempts = S.Attempts;
    D.Quarantined = Quarantine;
    D.MergedRuns = B.Out->MergedRuns;
    D.TreeRepetitions = Acc->tree().numRepetitions();
    Observer(D);
  }
  S.Prof.reset();
  B.Inputs[I] = vm::IoChannels(); // Release the run's input early too.
}

void SweepEngine::drainReady(Batch &B, bool Blocking) {
  std::unique_lock<std::mutex> Drain(B.DrainMu, std::defer_lock);
  if (Blocking)
    Drain.lock();
  else if (!Drain.try_lock())
    return;
  for (;;) {
    size_t I;
    {
      std::lock_guard<std::mutex> Lock(B.ReadyMu);
      if (B.NextMerge >= B.Shards.size() || !B.Ready[B.NextMerge])
        return;
      I = B.NextMerge++;
    }
    mergeShard(B, I);
  }
}

void SweepEngine::waitEnqueued() {
  if (!Active)
    return;
  Batch &B = *Active;
  std::unique_lock<std::mutex> Lock(B.ReadyMu);
  B.DoneCv.wait(Lock, [&] { return B.DoneRuns == B.Shards.size(); });
  // The last worker may still be inside its opportunistic drain; that
  // is fine — finishEnqueued's blocking drain serializes behind it.
}

void SweepEngine::finishEnqueued() {
  if (!Active)
    return;
  // All jobs are done (the caller waited on the pool); one blocking
  // drain picks up whatever the opportunistic try_lock drains missed.
  drainReady(*Active, /*Blocking=*/true);
  assert(Active->NextMerge == Active->Shards.size() &&
         "all shards merged after the final drain");
  Active.reset();
}
