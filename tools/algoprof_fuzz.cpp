//===- tools/algoprof_fuzz.cpp - Differential fuzz driver -----------------===//
///
/// \file
/// Deterministic differential fuzzing of the whole pipeline:
/// ProgramGen → frontend → Sema → Compiler → Verifier → VM →
/// AlgoProfiler, with three oracles per case:
///
///   1. No crash / UB: every case — generated, garbled, or mutated —
///      ends in a diagnostic, a VM trap, fuel exhaustion, or clean
///      completion. Aborts and sanitizer reports fail the batch (run
///      under -DALGOPROF_ASAN_UBSAN=ON; see docs/fuzzing.md).
///   2. Verifier soundness: a module the verifier accepts executes
///      without internal assertion failures.
///   3. Serial-vs-parallel differential: ProfileSession and SweepEngine
///      produce byte-identical profiles on every generated program
///      (extending `ctest -L parallel` beyond the hand-written corpus).
///
///   algoprof_fuzz [--seed S] [--count N] [--mutants K] [--runs R]
///                 [--garble PCT] [--fuel F] [--threads T]
///                 [--dump I] [--case I] [--corpus DIR] [-v]
///
/// Every case derives from (seed, index) alone: reproduce case 4711 of
/// the default batch with `algoprof_fuzz --case 4711`, and print its
/// program with `algoprof_fuzz --dump 4711`.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"
#include "bytecode/Verifier.h"
#include "core/Session.h"
#include "fuzz/Mutator.h"
#include "fuzz/ProgramGen.h"
#include "parallel/SweepEngine.h"
#include "report/TreePrinter.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace algoprof;
using namespace algoprof::fuzz;
using namespace algoprof::prof;

namespace {

struct FuzzOptions {
  uint64_t Seed = 0xa190f17;
  uint64_t Count = 1000;
  int Mutants = 2;
  int Runs = 2;
  int GarblePercent = 10;
  uint64_t Fuel = 200'000;
  int MaxFrames = 256;
  int64_t MaxArrayLength = 1 << 16;
  int64_t DumpCase = -1;
  int64_t OnlyCase = -1;
  std::string CorpusDir;
  bool Verbose = false;
};

struct Stats {
  uint64_t Cases = 0;
  uint64_t Garbled = 0;
  uint64_t FrontendRejected = 0;
  uint64_t Compiled = 0;
  uint64_t RunsOk = 0;
  uint64_t RunsTrapped = 0;
  uint64_t RunsFuel = 0;
  uint64_t RunsBudget = 0;
  uint64_t FaultRounds = 0;
  uint64_t MutantsTried = 0;
  uint64_t MutantsRejected = 0;
  uint64_t MutantsExecuted = 0;
  uint64_t Failures = 0;
};

void usageAndExit(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed S] [--count N] [--mutants K] [--runs R]\n"
      "          [--garble PCT] [--fuel F] [--threads T] [--dump I]\n"
      "          [--case I] [--corpus DIR] [-v]\n",
      Argv0);
  std::exit(2);
}

bool parseU64(const char *S, uint64_t &Out) {
  if (!S || !*S)
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 0);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool parseI64(const char *S, int64_t &Out) {
  if (!S || !*S)
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S, &End, 0);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

FuzzOptions parseArgs(int Argc, char **Argv) {
  FuzzOptions O;
  auto Need = [&](int &I) -> const char * {
    if (I + 1 >= Argc)
      usageAndExit(Argv[0]);
    return Argv[++I];
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t U;
    int64_t S;
    if (Arg == "--seed" && parseU64(Need(I), U))
      O.Seed = U;
    else if (Arg == "--count" && parseU64(Need(I), U))
      O.Count = U;
    else if (Arg == "--mutants" && parseU64(Need(I), U))
      O.Mutants = static_cast<int>(U);
    else if (Arg == "--runs" && parseU64(Need(I), U) && U >= 1)
      O.Runs = static_cast<int>(U);
    else if (Arg == "--garble" && parseU64(Need(I), U) && U <= 100)
      O.GarblePercent = static_cast<int>(U);
    else if (Arg == "--fuel" && parseU64(Need(I), U) && U >= 1)
      O.Fuel = U;
    else if (Arg == "--dump" && parseI64(Need(I), S))
      O.DumpCase = S;
    else if (Arg == "--case" && parseI64(Need(I), S))
      O.OnlyCase = S;
    else if (Arg == "--corpus")
      O.CorpusDir = Need(I);
    else if (Arg == "-v")
      O.Verbose = true;
    else
      usageAndExit(Argv[0]);
  }
  return O;
}

vm::RunOptions runOptions(const FuzzOptions &O) {
  vm::RunOptions R;
  R.Fuel = O.Fuel;
  R.MaxFrames = O.MaxFrames;
  R.MaxArrayLength = O.MaxArrayLength;
  return R;
}

void countRun(const vm::RunResult &R, Stats &St) {
  switch (R.Status) {
  case vm::RunStatus::Ok:
    ++St.RunsOk;
    break;
  case vm::RunStatus::Trapped:
    ++St.RunsTrapped;
    break;
  case vm::RunStatus::FuelExhausted:
    ++St.RunsFuel;
    break;
  case vm::RunStatus::BudgetExceeded:
    ++St.RunsBudget;
    break;
  }
}

/// Session options for one case, drawn deterministically from the case
/// rng. AllElements equivalence and sampling are excluded: their
/// serial/parallel deltas are documented behavior, not bugs (see
/// docs/parallel_sweeps.md "Caveats").
SessionOptions sessionOptionsFor(Rng &R, const FuzzOptions &O) {
  SessionOptions SO;
  SO.Run = runOptions(O);
  switch (R.below(3)) {
  case 0:
    SO.Profile.Equivalence = EquivalenceStrategy::SomeElements;
    break;
  case 1:
    SO.Profile.Equivalence = EquivalenceStrategy::SameArray;
    break;
  default:
    SO.Profile.Equivalence = EquivalenceStrategy::SameType;
    break;
  }
  SO.Profile.Snapshots =
      R.chance(50) ? SnapshotMode::Eager : SnapshotMode::Tracked;
  SO.AllMethodsPlan = R.chance(25);
  // Budget dimension: an occasional heap-byte budget (1 KiB .. 512 KiB
  // of modelled bytes). Both engines get the same budget, so budget
  // traps must be part of the byte-identical differential too.
  if (R.chance(15))
    SO.Run.MaxHeapBytes = 1ULL << (10 + R.below(10));
  return SO;
}

GroupingStrategy groupingFor(Rng &R) {
  switch (R.below(3)) {
  case 0:
    return GroupingStrategy::CommonInput;
  case 1:
    return GroupingStrategy::SameMethod;
  default:
    return GroupingStrategy::CommonInputPlusDataflow;
  }
}

/// The run-independent half of an engine's observable state (tree,
/// inputs, profiles) — what degraded-sweep comparisons use, where the
/// two sides executed different run counts by design.
std::string renderProfileState(const RepetitionTree &Tree,
                               const InputTable &Inputs,
                               const std::vector<AlgorithmProfile> &Profiles) {
  std::ostringstream OS;
  OS << "repetitions=" << Tree.numRepetitions() << " strategy="
     << equivalenceStrategyName(Inputs.strategy()) << " inputs=";
  for (int32_t Id : Inputs.liveInputs())
    OS << Id << ",";
  OS << "\n";
  OS << report::renderAnnotatedTree(Tree, Profiles);
  return OS.str();
}

/// One engine's observable state, rendered for byte comparison.
std::string renderState(const std::vector<vm::RunResult> &Runs,
                        const RepetitionTree &Tree,
                        const InputTable &Inputs,
                        const std::vector<AlgorithmProfile> &Profiles) {
  std::ostringstream OS;
  for (size_t I = 0; I < Runs.size(); ++I)
    OS << "run " << I << ": " << vm::runStatusName(Runs[I].Status)
       << " instr=" << Runs[I].InstrCount << " msg='"
       << Runs[I].TrapMessage << "'\n";
  OS << renderProfileState(Tree, Inputs, Profiles);
  return OS.str();
}

void reportFailure(Stats &St, uint64_t CaseIdx, uint64_t CaseSeed,
                   const std::string &What, const std::string &Detail,
                   const std::string &Source) {
  ++St.Failures;
  std::fprintf(stderr,
               "FAIL case %llu (seed 0x%llx): %s\n%s\n"
               "--- program ---\n%s\n---------------\n",
               static_cast<unsigned long long>(CaseIdx),
               static_cast<unsigned long long>(CaseSeed), What.c_str(),
               Detail.c_str(), Source.c_str());
}

/// Oracles 1+3 over one compiled program; shared by generated cases
/// and corpus replay.
void checkCompiledProgram(const CompiledProgram &CP,
                          const std::string &Source, uint64_t CaseIdx,
                          uint64_t CaseSeed, Rng &R,
                          const FuzzOptions &O, Stats &St) {
  SessionOptions SO = sessionOptionsFor(R, O);
  GroupingStrategy Grouping = groupingFor(R);

  // The input channel every run sees (identical across runs and
  // engines, like `algoprof --input --runs --jobs`).
  std::vector<int64_t> Input;
  uint64_t NumInputs = R.below(6);
  for (uint64_t I = 0; I < NumInputs; ++I)
    Input.push_back(R.chance(80) ? R.range(-20, 20) : R.anyInt());
  int Threads = R.range(2, 4);
  // The run plan rides in the options, so the serial session and the
  // sweep engine consume the exact same SessionOptions value.
  SO.Runs = O.Runs;
  SO.Input = Input;
  SO.Jobs = Threads;

  std::string OptsDesc =
      std::string("equivalence=") +
      equivalenceStrategyName(SO.Profile.Equivalence) +
      " snapshots=" + snapshotModeName(SO.Profile.Snapshots) +
      " allmethods=" + (SO.AllMethodsPlan ? "1" : "0") +
      " grouping=" + std::to_string(static_cast<int>(Grouping)) +
      " input=";
  for (int64_t V : Input)
    OptsDesc += std::to_string(V) + ",";

  // Serial: the accumulating session.
  ProfileSession Serial(CP, SO);
  std::vector<vm::RunResult> SerialRuns;
  for (int Run = 0; Run < O.Runs; ++Run) {
    vm::IoChannels Io;
    Io.Input = Input;
    SerialRuns.push_back(Serial.run("Main", "main", Io));
    countRun(SerialRuns.back(), St);
  }
  std::string SerialState =
      renderState(SerialRuns, Serial.tree(), Serial.inputs(),
                  Serial.buildProfiles(Grouping));

  // Parallel: the sharded sweep over the same runs, configured by the
  // identical SessionOptions (run plan included).
  parallel::SweepEngine Engine(CP, SO);
  parallel::SweepResult SR = Engine.sweep("Main", "main");
  std::string ParallelState =
      renderState(SR.Runs, Engine.tree(), Engine.inputs(),
                  Engine.buildProfiles(Grouping));

  if (SerialState != ParallelState)
    reportFailure(St, CaseIdx, CaseSeed,
                  "serial/parallel profile mismatch (threads=" +
                      std::to_string(Threads) + ", " + OptsDesc + ")",
                  "--- serial ---\n" + SerialState +
                      "--- parallel ---\n" + ParallelState,
                  Source);

  // Fault-plan dimension: arm one run-scoped fault under a quarantining
  // policy. Oracle: the degraded sweep reaches a defined outcome (never
  // a crash) and its merged profile byte-matches a serial session over
  // exactly the surviving runs.
  if (R.chance(35)) {
    ++St.FaultRounds;
    SessionOptions FS = SO;
    FS.Policy = R.chance(50) ? resilience::FailurePolicy::Skip
                             : resilience::FailurePolicy::Retry;
    FS.MaxAttempts = 2;
    resilience::Fault F;
    F.Site = R.chance(50) ? resilience::FaultSite::HeapOom
                          : resilience::FaultSite::RunStart;
    F.Run = static_cast<int64_t>(R.below(static_cast<uint64_t>(O.Runs)));
    F.Once = R.chance(30); // Transient faults let Retry recover.
    FS.Faults.Faults.push_back(F);

    parallel::SweepEngine Faulty(CP, FS);
    parallel::SweepResult FR = Faulty.sweep("Main", "main");
    for (const vm::RunResult &Run : FR.Runs)
      countRun(Run, St);
    std::vector<char> Quarantined(static_cast<size_t>(O.Runs), 0);
    for (const resilience::FailureInfo &FI : FR.Failures)
      if (FI.Quarantined)
        Quarantined[static_cast<size_t>(FI.Run)] = 1;

    ProfileSession Survivors(CP, SO);
    for (int Run = 0; Run < O.Runs; ++Run) {
      if (Quarantined[static_cast<size_t>(Run)])
        continue;
      vm::IoChannels Io;
      Io.Input = Input;
      (void)Survivors.run("Main", "main", Io);
    }
    std::string FaultyState = renderProfileState(
        Faulty.tree(), Faulty.inputs(), Faulty.buildProfiles(Grouping));
    std::string SurvivorState =
        renderProfileState(Survivors.tree(), Survivors.inputs(),
                           Survivors.buildProfiles(Grouping));
    if (FaultyState != SurvivorState)
      reportFailure(St, CaseIdx, CaseSeed,
                    "degraded sweep / survivor-serial mismatch (fault=" +
                        FS.Faults.str() + " policy=" +
                        resilience::failurePolicyName(FS.Policy) + ", " +
                        OptsDesc + ")",
                    "--- degraded sweep ---\n" + FaultyState +
                        "--- survivors serial ---\n" + SurvivorState,
                    Source);
  }
}

/// Oracle 2: mutate the module; the verifier rejects, or the mutant
/// executes to a defined outcome.
void checkMutants(const CompiledProgram &CP, uint64_t CaseSeed,
                  const FuzzOptions &O, Stats &St) {
  for (int K = 0; K < O.Mutants; ++K) {
    ++St.MutantsTried;
    Rng MR(deriveSeed(CaseSeed ^ 0x6d757461ULL, static_cast<uint64_t>(K)));
    bc::Module Mut =
        mutateModule(*CP.Mod, MR, 1 + static_cast<int>(MR.below(4)));
    if (!bc::verifyModule(Mut).empty()) {
      ++St.MutantsRejected;
      continue;
    }
    ++St.MutantsExecuted;
    // The disassembler must render any verified module.
    (void)bc::disassemble(Mut);
    int32_t Entry = Mut.findMethodId("Main", "main");
    if (Entry < 0)
      continue;
    const bc::MethodInfo &M = Mut.Methods[static_cast<size_t>(Entry)];
    if (!M.IsStatic || M.NumArgs != 0)
      continue;
    vm::PreparedProgram Prep = vm::PreparedProgram::prepare(Mut);
    vm::Interpreter Interp(Prep);
    vm::InstrumentationPlan Plan = vm::InstrumentationPlan::all(Mut);
    vm::IoChannels Io;
    Io.Input = {1, 2, 3};
    vm::RunResult R = Interp.run(Entry, nullptr, Plan, Io, runOptions(O));
    countRun(R, St);
  }
}

void runCase(uint64_t CaseIdx, const FuzzOptions &O, Stats &St) {
  ++St.Cases;
  uint64_t CaseSeed = deriveSeed(O.Seed, CaseIdx);
  Rng R(CaseSeed);
  std::string Source = generateProgram(R);
  bool Garbled = static_cast<int>(R.below(100)) < O.GarblePercent;
  if (Garbled) {
    ++St.Garbled;
    Source = garbleSource(Source, R);
  }
  if (O.Verbose)
    std::fprintf(stderr, "case %llu seed 0x%llx%s\n",
                 static_cast<unsigned long long>(CaseIdx),
                 static_cast<unsigned long long>(CaseSeed),
                 Garbled ? " (garbled)" : "");

  DiagnosticEngine Diags;
  std::unique_ptr<CompiledProgram> CP = compileMiniJ(Source, Diags);
  if (!CP) {
    ++St.FrontendRejected;
    // The compiler must never emit unverifiable bytecode; that
    // diagnostic is an internal error, not a user-input rejection.
    if (Diags.str().find("internal:") != std::string::npos)
      reportFailure(St, CaseIdx, CaseSeed,
                    "compiler emitted unverifiable bytecode", Diags.str(),
                    Source);
    else if (!Garbled)
      reportFailure(St, CaseIdx, CaseSeed,
                    "generated program rejected by frontend", Diags.str(),
                    Source);
    return;
  }
  ++St.Compiled;
  if (CP->entryMethod("Main", "main") < 0) {
    if (!Garbled)
      reportFailure(St, CaseIdx, CaseSeed, "missing Main.main", "",
                    Source);
    return;
  }
  checkCompiledProgram(*CP, Source, CaseIdx, CaseSeed, R, O, St);
  checkMutants(*CP, CaseSeed, O, St);
}

int runCorpus(const FuzzOptions &O, Stats &St) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  std::error_code Ec;
  for (const fs::directory_entry &E :
       fs::directory_iterator(O.CorpusDir, Ec))
    if (E.path().extension() == ".mj")
      Files.push_back(E.path());
  if (Ec) {
    std::fprintf(stderr, "error: cannot read corpus dir '%s'\n",
                 O.CorpusDir.c_str());
    return 2;
  }
  std::sort(Files.begin(), Files.end());
  for (size_t I = 0; I < Files.size(); ++I) {
    ++St.Cases;
    std::ifstream In(Files[I]);
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string Source = SS.str();
    if (O.Verbose)
      std::fprintf(stderr, "corpus %s\n", Files[I].c_str());

    DiagnosticEngine Diags;
    std::unique_ptr<CompiledProgram> CP = compileMiniJ(Source, Diags);
    if (!CP) {
      ++St.FrontendRejected;
      if (Diags.str().find("internal:") != std::string::npos)
        reportFailure(St, I, 0, "compiler emitted unverifiable bytecode",
                      Diags.str(), Files[I].string());
      continue;
    }
    ++St.Compiled;
    if (CP->entryMethod("Main", "main") < 0)
      continue;
    Rng R(deriveSeed(O.Seed, 0xc0ULL + I));
    checkCompiledProgram(*CP, Files[I].string(), I, 0, R, O, St);
    checkMutants(*CP, deriveSeed(O.Seed, I), O, St);
  }
  return 0;
}

int runFuzz(int Argc, char **Argv) {
  FuzzOptions O = parseArgs(Argc, Argv);
  Stats St;

  if (O.DumpCase >= 0) {
    Rng R(deriveSeed(O.Seed, static_cast<uint64_t>(O.DumpCase)));
    std::string Source = generateProgram(R);
    if (static_cast<int>(R.below(100)) < O.GarblePercent)
      Source = garbleSource(Source, R);
    std::printf("%s", Source.c_str());
    return 0;
  }

  if (!O.CorpusDir.empty()) {
    int Rc = runCorpus(O, St);
    if (Rc)
      return Rc;
  } else if (O.OnlyCase >= 0) {
    FuzzOptions Single = O;
    Single.Verbose = true;
    runCase(static_cast<uint64_t>(O.OnlyCase), Single, St);
  } else {
    for (uint64_t I = 0; I < O.Count; ++I)
      runCase(I, O, St);
  }

  std::printf(
      "fuzz: %llu cases (%llu garbled): %llu compiled, %llu rejected; "
      "runs ok=%llu trap=%llu fuel=%llu budget=%llu; fault rounds=%llu; "
      "mutants %llu (rejected=%llu executed=%llu); %llu failure(s)\n",
      static_cast<unsigned long long>(St.Cases),
      static_cast<unsigned long long>(St.Garbled),
      static_cast<unsigned long long>(St.Compiled),
      static_cast<unsigned long long>(St.FrontendRejected),
      static_cast<unsigned long long>(St.RunsOk),
      static_cast<unsigned long long>(St.RunsTrapped),
      static_cast<unsigned long long>(St.RunsFuel),
      static_cast<unsigned long long>(St.RunsBudget),
      static_cast<unsigned long long>(St.FaultRounds),
      static_cast<unsigned long long>(St.MutantsTried),
      static_cast<unsigned long long>(St.MutantsRejected),
      static_cast<unsigned long long>(St.MutantsExecuted),
      static_cast<unsigned long long>(St.Failures));
  return St.Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Exception boundary: a fuzz batch must end in a report, not
  // std::terminate — an escaped exception would read as a harness
  // crash instead of a pipeline bug.
  try {
    return runFuzz(Argc, Argv);
  } catch (const std::bad_alloc &) {
    std::fprintf(stderr, "error: out of memory\n");
    return 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: unhandled exception: %s\n", E.what());
    return 1;
  }
}
