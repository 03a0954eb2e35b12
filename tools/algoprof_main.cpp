//===- tools/algoprof_main.cpp - The algoprof command-line tool -----------===//
///
/// \file
/// Profiles a MiniJ source file and prints its algorithmic profile:
///
///   algoprof program.mj [options]
///     --entry Class.method       entry point (default: Main.main)
///     --grouping MODE            common-input | same-method | dataflow
///     --equivalence CRIT         some | all | same-array | same-type
///     --snapshots MODE           eager | tracked
///     --sample N                 invocation-sampling threshold (0 = off)
///     --runs N                   run the entry N times (default 1)
///     --jobs J                   shard the runs over J worker threads
///                                (0 = hardware concurrency; output is
///                                identical for every J)
///     --input v1,v2,...          values for the external input channel
///     --seeds v1,v2,...          one run per seed, each run's input
///                                channel pre-loaded with just its seed
///                                (overrides --runs/--input)
///     --policy P                 per-run failure policy: fail | skip |
///                                retry (default fail; see
///                                docs/resilience.md)
///     --retries N                extra attempts per failed run under
///                                --policy retry (default 2)
///     --max-heap-bytes N         per-run heap-byte budget (0 = off);
///                                overruns end the run with a
///                                deterministic budget trap, not OOM
///     --deadline-ms N            per-run wall-clock deadline (0 = off)
///     --inject SPEC              arm deterministic faults, e.g.
///                                heap-oom@run3,io-write-fail@metrics
///                                (env: ALGOPROF_INJECT)
///     --corpus WHAT              batch-profile a whole corpus instead
///                                of one file: 'builtin' (every built-in
///                                example/Table-1 program) or a
///                                directory of .mj files (sorted by
///                                name). Each program runs the full
///                                --seeds grid (default 4,8,...,24 when
///                                no --seeds/--runs given) on one shared
///                                work-stealing pool sized by --jobs,
///                                compiling each distinct source once.
///                                Policies/budgets/--inject apply per
///                                program (run indices restart at 0).
///                                Mutually exclusive with a file
///                                argument, --format/--out, and --cct.
///     --cct                      also print the traditional CCT profile
///     --format F                 render a report: table | tree | csv |
///                                dot | json (repeatable; each job goes
///                                to the next --out, or stdout)
///     --out FILE                 write the preceding --format job to
///                                FILE instead of stdout
///     --trace FILE               write a Chrome trace-event JSON of
///                                the profiler's own phase spans
///                                (open in ui.perfetto.dev)
///     --metrics FILE             write a Prometheus-style snapshot of
///                                the profiler's own counters/timers
///
/// The pre-registry `--dot FILE` / `--csv FILE` aliases are gone; they
/// are rejected with a pointer to the equivalent --format/--out pair.
///
//===----------------------------------------------------------------------===//

#include "cct/CctProfiler.h"
#include "core/Session.h"
#include "parallel/CorpusRunner.h"
#include "programs/Programs.h"
#include "obs/MetricsExport.h"
#include "obs/Obs.h"
#include "obs/TraceExport.h"
#include "report/CsvWriter.h"
#include "report/Reporter.h"
#include "report/TreePrinter.h"
#include "resilience/Resilience.h"

#include <exception>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

using namespace algoprof;
using namespace algoprof::prof;

namespace {

/// One requested report: a format name plus an output path (empty =
/// stdout).
struct RenderJob {
  std::string Format;
  std::string Out;
};

struct CliOptions {
  std::string File;
  std::string Corpus; ///< --corpus value: "builtin" or a directory.
  std::string EntryClass = "Main";
  std::string EntryMethod = "main";
  GroupingStrategy Grouping = GroupingStrategy::CommonInput;
  SessionOptions Session;
  bool WithCct = false;
  bool InjectGiven = false; ///< --inject on the command line (overrides
                            ///< the ALGOPROF_INJECT environment spec).
  std::vector<RenderJob> Jobs;
  std::string TraceFile;
  std::string MetricsFile;
};

void usageAndExit(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.mj> | --corpus builtin|DIR "
               "[--entry Class.method] "
               "[--grouping common-input|same-method|dataflow] "
               "[--equivalence some|all|same-array|same-type] "
               "[--snapshots eager|tracked] [--sample N] [--runs N] "
               "[--jobs J] [--input v1,v2,...] [--seeds v1,v2,...] "
               "[--policy fail|skip|retry] [--retries N] "
               "[--max-heap-bytes N] [--deadline-ms N] [--inject SPEC] "
               "[--cct] "
               "[--format table|tree|csv|dot|json] [--out FILE] "
               "[--trace FILE] [--metrics FILE]\n",
               Argv0);
  std::exit(2);
}

/// Strictly parses a decimal integer: the whole string must be
/// consumed and the value must fit in int64_t. atoi/atoll would accept
/// "12abc" (as 12), turn garbage into 0, and silently saturate on
/// overflow — all of which used to make flags like `--runs` profile
/// something other than what was asked.
bool parseInt64(const char *S, int64_t &Out) {
  if (!S || !*S)
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S, &End, 10);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// Strict bounded int for count-like flags.
bool parseIntIn(const char *S, int64_t Min, int64_t Max, int64_t &Out) {
  return parseInt64(S, Out) && Out >= Min && Out <= Max;
}

/// Splits a comma-separated list of strictly parsed 64-bit integers. A
/// stray character, an empty field, or an out-of-range value fails the
/// whole list (it used to be silently truncated).
bool parseIntList(const char *S, std::vector<int64_t> &Out) {
  if (!S)
    return false;
  std::string Str = S;
  size_t Pos = 0;
  while (!Str.empty() && Pos <= Str.size()) {
    size_t Comma = Str.find(',', Pos);
    std::string Field = Str.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    int64_t N;
    if (!parseInt64(Field.c_str(), N))
      return false;
    Out.push_back(N);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

bool argError(const char *Flag, const char *V, const char *Expected) {
  std::fprintf(stderr, "error: invalid value '%s' for %s (expected %s)\n",
               V ? V : "<missing>", Flag, Expected);
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  auto Need = [&](int &I) -> const char * {
    if (I + 1 >= Argc)
      return nullptr;
    return Argv[++I];
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--entry") {
      const char *V = Need(I);
      if (!V)
        return false;
      std::string S = V;
      size_t Dot = S.find('.');
      if (Dot == std::string::npos)
        return false;
      Opts.EntryClass = S.substr(0, Dot);
      Opts.EntryMethod = S.substr(Dot + 1);
    } else if (Arg == "--grouping") {
      const char *V = Need(I);
      if (!V)
        return false;
      std::string S = V;
      if (S == "common-input")
        Opts.Grouping = GroupingStrategy::CommonInput;
      else if (S == "same-method")
        Opts.Grouping = GroupingStrategy::SameMethod;
      else if (S == "dataflow")
        Opts.Grouping = GroupingStrategy::CommonInputPlusDataflow;
      else
        return false;
    } else if (Arg == "--equivalence") {
      const char *V = Need(I);
      if (!V)
        return false;
      std::string S = V;
      if (S == "some")
        Opts.Session.Profile.Equivalence =
            EquivalenceStrategy::SomeElements;
      else if (S == "all")
        Opts.Session.Profile.Equivalence =
            EquivalenceStrategy::AllElements;
      else if (S == "same-array")
        Opts.Session.Profile.Equivalence = EquivalenceStrategy::SameArray;
      else if (S == "same-type")
        Opts.Session.Profile.Equivalence = EquivalenceStrategy::SameType;
      else
        return false;
    } else if (Arg == "--snapshots") {
      const char *V = Need(I);
      if (!V)
        return false;
      std::string S = V;
      if (S == "eager")
        Opts.Session.Profile.Snapshots = SnapshotMode::Eager;
      else if (S == "tracked")
        Opts.Session.Profile.Snapshots = SnapshotMode::Tracked;
      else
        return false;
    } else if (Arg == "--sample") {
      const char *V = Need(I);
      int64_t N;
      if (!V || !parseIntIn(V, 0, std::numeric_limits<int64_t>::max(), N))
        return argError("--sample", V, "an integer >= 0");
      Opts.Session.Profile.SampleThreshold = N;
    } else if (Arg == "--runs") {
      const char *V = Need(I);
      int64_t N;
      if (!V || !parseIntIn(V, 1, 1'000'000'000, N))
        return argError("--runs", V, "an integer >= 1");
      Opts.Session.Runs = static_cast<int>(N);
    } else if (Arg == "--jobs") {
      const char *V = Need(I);
      int64_t N;
      if (!V || !parseIntIn(V, 0, 1'000'000, N))
        return argError("--jobs", V,
                        "an integer >= 0 (0 = hardware concurrency)");
      Opts.Session.Jobs = static_cast<int>(N);
    } else if (Arg == "--input") {
      const char *V = Need(I);
      if (!V || !parseIntList(V, Opts.Session.Input))
        return argError("--input", V,
                        "a comma-separated list of 64-bit integers");
    } else if (Arg == "--seeds") {
      const char *V = Need(I);
      if (!V || !parseIntList(V, Opts.Session.Seeds))
        return argError("--seeds", V,
                        "a comma-separated list of 64-bit integers");
    } else if (Arg == "--policy") {
      const char *V = Need(I);
      if (!V || !resilience::parseFailurePolicy(V, Opts.Session.Policy))
        return argError("--policy", V, "fail|skip|retry");
    } else if (Arg == "--retries") {
      const char *V = Need(I);
      int64_t N;
      if (!V || !parseIntIn(V, 0, 1000, N))
        return argError("--retries", V, "an integer in [0, 1000]");
      Opts.Session.MaxAttempts = static_cast<int>(N) + 1;
    } else if (Arg == "--max-heap-bytes") {
      const char *V = Need(I);
      int64_t N;
      if (!V || !parseIntIn(V, 0, std::numeric_limits<int64_t>::max(), N))
        return argError("--max-heap-bytes", V, "an integer >= 0 (0 = off)");
      Opts.Session.Run.MaxHeapBytes = static_cast<uint64_t>(N);
    } else if (Arg == "--deadline-ms") {
      const char *V = Need(I);
      int64_t N;
      if (!V || !parseIntIn(V, 0, std::numeric_limits<int64_t>::max(), N))
        return argError("--deadline-ms", V, "an integer >= 0 (0 = off)");
      Opts.Session.Run.RunDeadlineMs = static_cast<uint64_t>(N);
    } else if (Arg == "--inject") {
      const char *V = Need(I);
      std::string Err;
      if (!V || !resilience::FaultPlan::parse(V, Opts.Session.Faults, Err))
        return argError("--inject", V,
                        Err.empty() ? "a fault spec like heap-oom@run3"
                                    : Err.c_str());
      Opts.InjectGiven = true;
    } else if (Arg == "--corpus") {
      const char *V = Need(I);
      if (!V || !*V)
        return argError("--corpus", V,
                        "'builtin' or a directory of .mj files");
      Opts.Corpus = V;
    } else if (Arg == "--cct") {
      Opts.WithCct = true;
    } else if (Arg == "--format") {
      const char *V = Need(I);
      if (!V || !report::Registry::builtin().find(V)) {
        std::string Names;
        for (const std::string &N : report::Registry::builtin().names())
          Names += (Names.empty() ? "" : "|") + N;
        return argError("--format", V, Names.c_str());
      }
      Opts.Jobs.push_back({V, ""});
    } else if (Arg == "--out") {
      const char *V = Need(I);
      if (!V)
        return argError("--out", V, "a file path");
      if (Opts.Jobs.empty() || !Opts.Jobs.back().Out.empty()) {
        std::fprintf(stderr,
                     "error: --out must follow a --format job\n");
        return false;
      }
      Opts.Jobs.back().Out = V;
    } else if (Arg == "--trace") {
      const char *V = Need(I);
      if (!V)
        return argError("--trace", V, "a file path");
      Opts.TraceFile = V;
    } else if (Arg == "--metrics") {
      const char *V = Need(I);
      if (!V)
        return argError("--metrics", V, "a file path");
      Opts.MetricsFile = V;
    } else if (Arg == "--dot" || Arg == "--csv") {
      // Removed aliases (deprecated since the report-registry rewrite);
      // name the exact replacement instead of a generic usage dump.
      std::fprintf(stderr,
                   "error: %s was removed; use --format %s --out FILE "
                   "(it writes the identical bytes)\n",
                   Arg.c_str(), Arg.c_str() + 2);
      return false;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return false;
    } else if (Opts.File.empty()) {
      Opts.File = Arg;
    } else {
      return false;
    }
  }
  if (!Opts.Corpus.empty()) {
    // Corpus batches produce one summary over many programs; the
    // single-file report/CCT machinery does not compose with that.
    if (!Opts.File.empty()) {
      std::fprintf(stderr,
                   "error: --corpus and a file argument are mutually "
                   "exclusive\n");
      return false;
    }
    if (!Opts.Jobs.empty() || Opts.WithCct) {
      std::fprintf(stderr,
                   "error: --corpus does not support --format/--out/"
                   "--cct\n");
      return false;
    }
    return true;
  }
  return !Opts.File.empty();
}

std::string readFileOrDie(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::string Content;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Content.append(Buf, N);
  std::fclose(F);
  return Content;
}

/// Resolves the --corpus value into named program sources: the built-in
/// corpus, or every .mj file of a directory in name order. Returns
/// false (with an invalid-value diagnostic) when the value names
/// neither.
bool collectCorpus(const std::string &Spec,
                   std::vector<parallel::CorpusEntry> &Entries) {
  if (Spec == "builtin") {
    for (const programs::CorpusProgram &P : programs::corpusPrograms())
      Entries.push_back({P.Name, P.Source});
    return true;
  }
  namespace fs = std::filesystem;
  std::error_code Ec;
  std::vector<fs::path> Files;
  for (fs::directory_iterator It(Spec, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    if (It->is_regular_file(Ec) && It->path().extension() == ".mj")
      Files.push_back(It->path());
  }
  std::sort(Files.begin(), Files.end());
  if (Ec || Files.empty()) {
    argError("--corpus", Spec.c_str(),
             "'builtin' or a directory containing .mj files");
    return false;
  }
  for (const fs::path &P : Files)
    Entries.push_back({P.filename().string(), readFileOrDie(P.string())});
  return true;
}

/// The --corpus driving mode: every program × the seed grid as one job
/// graph on a shared work-stealing pool. The stdout summary is fully
/// deterministic — program order is corpus input order and no timing
/// or schedule-dependent value is printed — so `--jobs 1` and
/// `--jobs N` outputs are byte-identical (cli_test.sh asserts this).
int runCorpus(CliOptions &Opts) {
  std::vector<parallel::CorpusEntry> Entries;
  if (!collectCorpus(Opts.Corpus, Entries))
    return 2;

  // Default run plan: a seed grid, so seeded programs get a real
  // input-size sweep out of the box. Explicit --seeds/--runs win.
  if (Opts.Session.Seeds.empty() && Opts.Session.Runs == 1)
    Opts.Session.Seeds = {4, 8, 12, 16, 20, 24};
  size_t RunsPerProgram =
      prof::runCount(Opts.Session.Seeds, Opts.Session.Runs);

  parallel::CorpusRunner Runner(Opts.Session);
  parallel::CorpusResult Result =
      Runner.run(Entries, Opts.EntryClass, Opts.EntryMethod);

  std::printf("corpus: %d program(s) x %d run(s), %llu compile(s), "
              "%llu cache hit(s)\n\n",
              static_cast<int>(Entries.size()),
              static_cast<int>(RunsPerProgram),
              static_cast<unsigned long long>(Result.Cache.Compiles),
              static_cast<unsigned long long>(Result.Cache.Hits));

  size_t NameWidth = 7; // "program"
  for (const parallel::CorpusProgramResult &R : Result.Programs)
    NameWidth = std::max(NameWidth, R.Name.size());
  std::printf("%-*s  %5s  %6s  %11s  %6s  %10s  status\n",
              static_cast<int>(NameWidth), "program", "runs", "merged",
              "quarantined", "failed", "algorithms");

  bool AnyBad = false;
  for (const parallel::CorpusProgramResult &R : Result.Programs) {
    if (!R.Error.empty()) {
      AnyBad = true;
      std::printf("%-*s  %5s  %6s  %11s  %6s  %10s  compile error\n",
                  static_cast<int>(NameWidth), R.Name.c_str(), "-", "-",
                  "-", "-", "-");
      std::fprintf(stderr, "error: %s failed to compile:\n%s",
                   R.Name.c_str(), R.Error.c_str());
      continue;
    }
    size_t Quarantined = 0, Unquarantined = 0;
    for (const resilience::FailureInfo &FI : R.Sweep.Failures) {
      (FI.Quarantined ? Quarantined : Unquarantined) += 1;
      std::string Budget =
          FI.Budget.empty() ? "" : " (budget " + FI.Budget + ")";
      std::fprintf(stderr, "%s: %s run %lld %s after %d attempt(s)%s: %s\n",
                   FI.Quarantined ? "warning" : "error", R.Name.c_str(),
                   static_cast<long long>(FI.Run),
                   FI.Quarantined ? "quarantined" : "failed", FI.Attempts,
                   Budget.c_str(), FI.Message.c_str());
    }
    // buildProfilesFrom makes one profile per grouped algorithm; the
    // count needs only the grouping.
    size_t NumAlgos =
        prof::groupAlgorithms(R.Engine->tree(), R.Engine->inputs(),
                              R.Program->Prep, Opts.Grouping,
                              &R.Program->Dataflow)
            .size();
    const char *Status = "ok";
    if (!R.Sweep.usable()) {
      Status = "failed";
      AnyBad = true;
    } else if (!R.Sweep.Failures.empty()) {
      Status = "degraded";
    }
    std::printf("%-*s  %5d  %6lld  %11d  %6d  %10d  %s\n",
                static_cast<int>(NameWidth), R.Name.c_str(),
                static_cast<int>(R.Sweep.Runs.size()),
                static_cast<long long>(R.Sweep.MergedRuns),
                static_cast<int>(Quarantined),
                static_cast<int>(Unquarantined),
                static_cast<int>(NumAlgos), Status);
  }

  bool WriteFailed = false;
  if (!Opts.TraceFile.empty()) {
    if (Opts.Session.Faults.firesIoWrite("trace") ||
        !report::writeFile(Opts.TraceFile,
                           obs::chromeTraceJson(obs::snapshot()))) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.TraceFile.c_str());
      WriteFailed = true;
    }
  }
  if (!Opts.MetricsFile.empty()) {
    if (Opts.Session.Faults.firesIoWrite("metrics") ||
        !report::writeFile(Opts.MetricsFile,
                           obs::prometheusText(obs::snapshot()))) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.MetricsFile.c_str());
      WriteFailed = true;
    }
  }
  return (AnyBad || WriteFailed) ? 1 : 0;
}

int runTool(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    usageAndExit(Argv[0]);

  // Fault injection: the CLI flag wins; otherwise the ALGOPROF_INJECT
  // environment spec arms the same plan (how ctest drives injection
  // through shell cases without touching each command line).
  if (!Opts.InjectGiven) {
    if (const char *Env = std::getenv("ALGOPROF_INJECT")) {
      std::string Err;
      if (!resilience::FaultPlan::parse(Env, Opts.Session.Faults, Err)) {
        std::fprintf(stderr, "error: invalid ALGOPROF_INJECT: %s\n",
                     Err.c_str());
        return 2;
      }
    }
  }
  // All faults — run-scoped and io-scoped — now travel inside
  // SessionOptions::Faults; the write sites below consult the session's
  // own plan, so nothing is armed process-globally.

  // Span recording must be live before compilation so the frontend
  // phases land in the trace.
  if (!Opts.TraceFile.empty()) {
#if ALGOPROF_OBS_ENABLED
    obs::enableTracing(true);
#else
    std::fprintf(stderr,
                 "warning: this binary was built with ALGOPROF_OBS=OFF; "
                 "--trace will contain no events\n");
#endif
  }
#if !ALGOPROF_OBS_ENABLED
  if (!Opts.MetricsFile.empty())
    std::fprintf(stderr,
                 "warning: this binary was built with ALGOPROF_OBS=OFF; "
                 "--metrics will contain only zeros\n");
#endif

  if (!Opts.Corpus.empty())
    return runCorpus(Opts);

  DiagnosticEngine Diags;
  auto CP = compileMiniJ(readFileOrDie(Opts.File), Diags);
  if (!CP) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  if (CP->entryMethod(Opts.EntryClass, Opts.EntryMethod) < 0) {
    std::fprintf(stderr,
                 "error: no static no-arg method %s.%s in '%s'\n",
                 Opts.EntryClass.c_str(), Opts.EntryMethod.c_str(),
                 Opts.File.c_str());
    return 1;
  }

  // ProfileDriver is the one-true-path over serial and sharded
  // profiling; --jobs 1 keeps the classic accumulating session, any
  // other value shards the runs over the sweep engine. Output is
  // identical either way (tests/ParallelSweepTest.cpp locks that down).
  ProfileDriver Driver(*CP, Opts.Session);
  std::vector<vm::RunResult> Results =
      Driver.runAll(Opts.EntryClass, Opts.EntryMethod);
  uint64_t Instructions = 0;
  for (const vm::RunResult &R : Results)
    Instructions += R.InstrCount;

  // Degraded-run reporting. Quarantined runs (skip/retry policies) are
  // warnings — the sweep survives them and the profile covers the
  // survivors. Any unquarantined failure is fatal, named with the run
  // index and the budget that tripped (when one did).
  for (const resilience::FailureInfo &FI : Driver.failures()) {
    std::string Budget =
        FI.Budget.empty() ? "" : " (budget " + FI.Budget + ")";
    if (FI.Quarantined)
      std::fprintf(stderr,
                   "warning: run %lld quarantined after %d attempt(s)%s: "
                   "%s\n",
                   static_cast<long long>(FI.Run), FI.Attempts,
                   Budget.c_str(), FI.Message.c_str());
    else
      std::fprintf(stderr, "error: run %lld failed%s: %s\n",
                   static_cast<long long>(FI.Run), Budget.c_str(),
                   FI.Message.c_str());
  }
  if (!Driver.usable())
    return 1;

  const RepetitionTree &Tree = Driver.tree();
  const InputTable &Inputs = Driver.inputs();
  std::vector<AlgorithmProfile> Profiles =
      Driver.buildProfiles(Opts.Grouping);

  // "structure snapshots" counts traversals taken: a snapshot that
  // reused an earlier traversal (InputTable::measureFrom) counts zero.
  std::printf("%d run(s), %llu bytecode instructions, %d repetitions, "
              "%d input(s), %lld structure snapshots\n\n",
              static_cast<int>(Results.size()),
              static_cast<unsigned long long>(Instructions),
              Tree.numRepetitions(),
              static_cast<int>(Inputs.liveInputs().size()),
              static_cast<long long>(Inputs.snapshotsTaken()));

  std::printf("%s", report::renderAnnotatedTree(Tree, Profiles).c_str());

  if (Opts.WithCct) {
    // A second, CCT-profiled execution over the same program.
    cct::CctProfiler Profiler(*CP->Mod);
    vm::Interpreter Interp(CP->Prep);
    vm::InstrumentationPlan Plan = vm::InstrumentationPlan::all(*CP->Mod);
    size_t CctRuns = prof::runCount(Opts.Session.Seeds, Opts.Session.Runs);
    for (size_t Run = 0; Run < CctRuns; ++Run) {
      vm::IoChannels Io;
      Io.Input = Opts.Session.Input;
      Interp.run(CP->entryMethod(Opts.EntryClass, Opts.EntryMethod),
                 &Profiler, Plan, Io);
    }
    std::printf("\nTraditional CCT profile:\n%s",
                report::renderCct(Profiler).c_str());
  }

  // Report-writer failures must surface as a failing exit code: a
  // sweep script that asks for an output file and gets exit 0 with no
  // file would silently drop its results. The same rule covers
  // --trace/--metrics below.
  bool WriteFailed = false;
  report::ReportInput RI{&Tree, &Inputs, &Profiles, &Driver.failures()};
  bool FirstFileJob = true;
  for (const RenderJob &Job : Opts.Jobs) {
    const report::Reporter *R = report::Registry::builtin().find(Job.Format);
    std::string Doc = R->render(RI);
    if (Job.Out.empty()) {
      std::printf("\n%s", Doc.c_str());
      continue;
    }
    // An armed io-write fault is indistinguishable from a real failed
    // write: same message, same failing exit.
    if (!Opts.Session.Faults.firesIoWrite("report") &&
        report::writeFile(Job.Out, Doc)) {
      std::printf("%swrote %s\n", FirstFileJob ? "\n" : "",
                  Job.Out.c_str());
      FirstFileJob = false;
    } else {
      std::fprintf(stderr, "error: cannot write '%s'\n", Job.Out.c_str());
      WriteFailed = true;
    }
  }

  if (!Opts.TraceFile.empty()) {
    if (Opts.Session.Faults.firesIoWrite("trace") ||
        !report::writeFile(Opts.TraceFile,
                           obs::chromeTraceJson(obs::snapshot()))) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.TraceFile.c_str());
      WriteFailed = true;
    }
  }
  if (!Opts.MetricsFile.empty()) {
    if (Opts.Session.Faults.firesIoWrite("metrics") ||
        !report::writeFile(Opts.MetricsFile,
                           obs::prometheusText(obs::snapshot()))) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.MetricsFile.c_str());
      WriteFailed = true;
    }
  }
  return WriteFailed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // The tool's exception boundary: nothing below may escape as
  // std::terminate. bad_alloc in particular used to kill the process
  // with no diagnostic when a hostile program out-allocated the host
  // (run-scoped OOM is already converted to a budget trap inside the
  // VM; this catches allocation failure in the pipeline around it).
  try {
    return runTool(Argc, Argv);
  } catch (const std::bad_alloc &) {
    std::fprintf(stderr, "error: out of memory\n");
    return 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: unhandled exception: %s\n", E.what());
    return 1;
  }
}
