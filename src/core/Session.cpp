//===- core/Session.cpp ---------------------------------------------------===//

#include "core/Session.h"

#include "bytecode/Compiler.h"
#include "bytecode/Verifier.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "obs/Obs.h"
#include "parallel/SweepEngine.h"

#include <algorithm>
#include <thread>

using namespace algoprof;
using namespace algoprof::prof;

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

int32_t CompiledProgram::entryMethod(const std::string &Cls,
                                     const std::string &Method) const {
  int32_t Id = Mod->findMethodId(Cls, Method);
  if (Id < 0)
    return -1;
  const bc::MethodInfo &M = Mod->Methods[static_cast<size_t>(Id)];
  if (!M.IsStatic || M.NumArgs != 0)
    return -1;
  return Id;
}

std::unique_ptr<CompiledProgram>
algoprof::prof::compileMiniJ(const std::string &Source,
                             DiagnosticEngine &Diags) {
  auto CP = std::make_unique<CompiledProgram>();
  CP->Ast = parseMiniJ(Source, Diags);
  if (Diags.hasErrors())
    return nullptr;
  if (!runSema(*CP->Ast, Diags))
    return nullptr;
  CP->Mod = compileProgram(*CP->Ast, Diags);
  if (!CP->Mod)
    return nullptr;
  // Defense in depth: the interpreter assumes well-formed code; a
  // verifier failure here is a compiler bug, reported as a diagnostic
  // rather than as undefined behavior at run time.
  std::vector<std::string> Problems = bc::verifyModule(*CP->Mod);
  if (!Problems.empty()) {
    for (const std::string &P : Problems)
      Diags.error({}, "internal: bytecode verification failed: " + P);
    return nullptr;
  }
  {
    obs::ScopedSpan Span(obs::Phase::Prepare);
    CP->Prep = vm::PreparedProgram::prepare(*CP->Mod);
  }
  {
    obs::ScopedSpan Span(obs::Phase::Dataflow);
    CP->Dataflow = analysis::computeIndexDataflow(*CP->Ast);
  }
  return CP;
}

vm::RunResult algoprof::prof::runPlain(const CompiledProgram &CP,
                                       const std::string &Cls,
                                       const std::string &Method,
                                       vm::IoChannels *Io,
                                       const vm::RunOptions &Opts) {
  int32_t Entry = CP.entryMethod(Cls, Method);
  if (Entry < 0) {
    vm::RunResult R;
    R.Status = vm::RunStatus::Trapped;
    R.TrapMessage = "no static no-arg method " + Cls + "." + Method;
    return R;
  }
  vm::Interpreter Interp(CP.Prep);
  vm::InstrumentationPlan Plan = vm::InstrumentationPlan::all(*CP.Mod);
  vm::IoChannels LocalIo;
  return Interp.run(Entry, /*Listener=*/nullptr, Plan, Io ? *Io : LocalIo,
                    Opts);
}

//===----------------------------------------------------------------------===//
// ProfileSession
//===----------------------------------------------------------------------===//

vm::InstrumentationPlan
algoprof::prof::makeInstrumentationPlan(const CompiledProgram &CP,
                                        bool AllMethods) {
  if (AllMethods)
    return vm::InstrumentationPlan::forAlgoProfAllMethods(
        *CP.Mod, CP.Prep.RecTypes);
  return vm::InstrumentationPlan::forAlgoProf(*CP.Mod, CP.Prep.RecTypes,
                                              CP.Prep.Calls);
}

ProfileSession::ProfileSession(const CompiledProgram &CP,
                               SessionOptions Opts)
    : CP(CP), Opts(Opts),
      Plan(makeInstrumentationPlan(CP, Opts.AllMethodsPlan)),
      Interp(CP.Prep), Prof(CP.Prep, Opts.Profile) {}

vm::RunResult ProfileSession::run(const std::string &Cls,
                                  const std::string &Method) {
  vm::IoChannels Io;
  return run(Cls, Method, Io);
}

vm::RunResult ProfileSession::run(const std::string &Cls,
                                  const std::string &Method,
                                  vm::IoChannels &Io) {
  int32_t Entry = CP.entryMethod(Cls, Method);
  if (Entry < 0) {
    vm::RunResult R;
    R.Status = vm::RunStatus::Trapped;
    R.TrapMessage = "no static no-arg method " + Cls + "." + Method;
    return R;
  }
  vm::RunResult R = Interp.run(Entry, &Prof, Plan, Io, Opts.Run);
  // Reclaim run-scoped heap memory. recycle() keeps the id space
  // advancing, so ids recorded by this run's profiling stay unique
  // forever — a reset() here would alias the next run's objects into
  // the profiler's input membership maps.
  Interp.heap().recycle();
  return R;
}

std::vector<Algorithm>
ProfileSession::algorithms(GroupingStrategy Strategy) const {
  return groupAlgorithms(Prof.tree(), Prof.inputs(), CP.Prep, Strategy,
                         &CP.Dataflow);
}

const AlgorithmProfile::InputSeries *
AlgorithmProfile::primarySeries() const {
  for (const InputSeries &S : Series)
    if (S.Interesting)
      return &S;
  return nullptr;
}

std::vector<AlgorithmProfile>
ProfileSession::buildProfiles(GroupingStrategy Strategy) const {
  return buildProfilesFrom(Prof.tree(), Prof.inputs(), CP, Strategy);
}

std::vector<AlgorithmProfile>
algoprof::prof::buildProfilesFrom(const RepetitionTree &Tree,
                                  const InputTable &Inputs,
                                  const CompiledProgram &CP,
                                  GroupingStrategy Strategy) {
  obs::ScopedSpan Span(obs::Phase::BuildProfiles);
  std::vector<Algorithm> Algos;
  {
    obs::ScopedTimer Timer(obs::Phase::Grouping);
    Algos = groupAlgorithms(Tree, Inputs, CP.Prep, Strategy, &CP.Dataflow);
  }
  std::vector<AlgorithmProfile> Profiles;
  Profiles.reserve(Algos.size());
  for (Algorithm &A : Algos) {
    AlgorithmProfile AP;
    AP.Algo = std::move(A);
    {
      obs::ScopedTimer Timer(obs::Phase::Combine);
      AP.Invocations = combineInvocations(AP.Algo, Inputs);
    }
    {
      obs::ScopedTimer Timer(obs::Phase::Classify);
      AP.Class = classifyAlgorithm(AP.Algo, AP.Invocations, Inputs,
                                   *CP.Mod);
    }
    AP.Label = AP.Class.label(Inputs);
    // Pool the algorithm's inputs by kind and extract the kind's step
    // and per-measure series across all root invocations.
    std::map<std::string, std::vector<int32_t>> Kinds;
    for (int32_t InputId : AP.Algo.InputIds)
      Kinds[Inputs.info(InputId).Label].push_back(InputId);
    for (auto &[Kind, Ids] : Kinds) {
      std::vector<std::vector<SeriesPoint>> ByKind;
      {
        obs::ScopedTimer Timer(obs::Phase::Series);
        ByKind = extractPooledSeriesByKind(AP.Invocations, Ids,
                                           ProfileSeriesKinds);
      }
      AlgorithmProfile::InputSeries S;
      S.Kind = Kind;
      S.InputIds = std::move(Ids);
      S.Series = std::move(ByKind[0]);
      S.Interesting = isInterestingSeries(S.Series);
      if (S.Interesting)
        S.Fit = fit::fitBest(S.Series);
      // Per-measure plots (paper Sec. 3.5); constant or absent measures
      // are excluded by the isInterestingSeries heuristic.
      for (size_t K = 1; K < ProfileSeriesKinds.size(); ++K) {
        if (!isInterestingSeries(ByKind[K]))
          continue;
        fit::FitResult F = fit::fitBest(ByKind[K]);
        if (F.Valid)
          S.MeasureFits.emplace(ProfileSeriesKinds[K], F);
      }
      AP.Series.push_back(std::move(S));
    }
    Profiles.push_back(std::move(AP));
  }
  return Profiles;
}

//===----------------------------------------------------------------------===//
// Run plan
//===----------------------------------------------------------------------===//

size_t algoprof::prof::runCount(const std::vector<int64_t> &Seeds,
                                int Runs) {
  return Seeds.empty() ? static_cast<size_t>(std::max(1, Runs))
                       : Seeds.size();
}

std::vector<vm::IoChannels>
algoprof::prof::runInputs(const std::vector<int64_t> &Seeds, int Runs,
                          const std::vector<int64_t> &Input) {
  std::vector<vm::IoChannels> Out(runCount(Seeds, Runs));
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I].Input = Seeds.empty() ? Input : std::vector<int64_t>{Seeds[I]};
  return Out;
}

unsigned algoprof::prof::workerCount(int Jobs) {
  return Jobs == 0 ? std::max(1u, std::thread::hardware_concurrency())
                   : static_cast<unsigned>(std::max(1, Jobs));
}

//===----------------------------------------------------------------------===//
// ProfileDriver
//===----------------------------------------------------------------------===//

ProfileDriver::ProfileDriver(const CompiledProgram &CP, SessionOptions Opts)
    : Opts(Opts) {
  // A serial accumulating session cannot un-merge a failed run, so any
  // configuration that may quarantine (non-Fail policy, or run-scoped
  // faults armed) routes through the sweep engine even at Jobs == 1 — a
  // one-worker sweep is byte-identical to the serial session
  // (ParallelSweepTest locks this), so the output is unchanged.
  bool NeedsEngine = Opts.Jobs != 1 ||
                     Opts.Policy != resilience::FailurePolicy::Fail ||
                     Opts.Faults.hasRunFaults();
  if (NeedsEngine)
    Engine = std::make_unique<parallel::SweepEngine>(CP, Opts);
  else
    Serial = std::make_unique<ProfileSession>(CP, Opts);
}

ProfileDriver::~ProfileDriver() = default;

std::vector<vm::RunResult> ProfileDriver::runAll(const std::string &Cls,
                                                 const std::string &Method) {
  if (Engine) {
    parallel::SweepResult SR = Engine->sweep(Cls, Method);
    for (resilience::FailureInfo &FI : SR.Failures)
      Failures.push_back(std::move(FI));
    MergedAny = MergedAny || SR.MergedRuns > 0;
    return std::move(SR.Runs);
  }
  // Serial path: same run plan, executed in place on the accumulating
  // session.
  std::vector<vm::RunResult> Results;
  std::vector<vm::IoChannels> Inputs =
      runInputs(Opts.Seeds, Opts.Runs, Opts.Input);
  Results.reserve(Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I) {
    vm::RunResult R = Serial->run(Cls, Method, Inputs[I]);
    if (!R.ok()) {
      resilience::FailureInfo FI;
      FI.Run = static_cast<int64_t>(I);
      FI.Status = R.Status;
      FI.Budget = R.Budget;
      FI.Message = R.TrapMessage;
      FI.Injected = R.Injected;
      Failures.push_back(std::move(FI));
    }
    MergedAny = true;
    Results.push_back(std::move(R));
  }
  return Results;
}

bool ProfileDriver::usable() const {
  if (!MergedAny)
    return false;
  for (const resilience::FailureInfo &F : Failures)
    if (!F.Quarantined)
      return false;
  return true;
}

const RepetitionTree &ProfileDriver::tree() const {
  return Engine ? Engine->tree() : Serial->tree();
}

const InputTable &ProfileDriver::inputs() const {
  return Engine ? Engine->inputs() : Serial->inputs();
}

std::vector<AlgorithmProfile>
ProfileDriver::buildProfiles(GroupingStrategy Strategy) const {
  return Engine ? Engine->buildProfiles(Strategy)
                : Serial->buildProfiles(Strategy);
}
