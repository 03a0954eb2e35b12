//===- bench/bench_overhead.cpp - Profiling overhead (Sec. 5) -------------===//
///
/// \file
/// The paper's Section 5 observation that algorithmic profiling is
/// orders of magnitude slower than plain execution, and that the
/// snapshot strategy dominates that cost: plain VM vs the traditional
/// CCT profiler vs AlgoProf under Tracked / Eager / AllElements sizing,
/// all on the same running example. Results go to stdout as a table and
/// to bench_overhead.json with a provenance header (compiler, obs build
/// flag, instructions per run) so committed numbers are interpretable
/// later; docs/benchmarks.md explains how to read them.
///
//===----------------------------------------------------------------------===//

#include "cct/CctProfiler.h"
#include "core/Session.h"
#include "programs/Programs.h"
#include "report/CsvWriter.h"
#include "report/TablePrinter.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace algoprof;
using namespace algoprof::prof;

namespace {

/// Best-of-Reps wall time of Iters back-to-back runs, reported as
/// per-run milliseconds. Min (not mean) is the standard noise filter
/// for a single-threaded CPU-bound loop on a shared machine.
template <typename Fn> double bestMsPerRun(int Reps, int Iters, Fn Body) {
  double Best = 0;
  for (int R = 0; R < Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    for (int I = 0; I < Iters; ++I)
      Body();
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count() /
                Iters;
    if (R == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

struct Row {
  std::string Name;
  double Ms = 0;
};

std::string fmt(double V, const char *Spec = "%.3f") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Spec, V);
  return Buf;
}

} // namespace

int main() {
  DiagnosticEngine Diags;
  auto CP = compileMiniJ(
      programs::insertionSortProgram(/*MaxSize=*/81, /*Step=*/20,
                                     /*Reps=*/2,
                                     programs::InputOrder::Random),
      Diags);
  if (!CP) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  std::printf("Profiling overhead (insertion sort, sizes to 81)\n\n");

  std::vector<Row> Rows;
  uint64_t Instr = 0;
  double PlainMs = bestMsPerRun(5, 40, [&] {
    vm::IoChannels Io;
    vm::RunResult R = runPlain(*CP, "Main", "main", &Io);
    if (!R.ok())
      std::exit(1);
    Instr = R.InstrCount;
  });
  Rows.push_back({"plain vm", PlainMs});
  {
    double Ms = bestMsPerRun(3, 10, [&] {
      cct::CctProfiler Profiler(*CP->Mod);
      vm::Interpreter Interp(CP->Prep);
      vm::InstrumentationPlan Plan = vm::InstrumentationPlan::all(*CP->Mod);
      vm::IoChannels Io;
      vm::RunResult R = Interp.run(CP->entryMethod("Main", "main"),
                                   &Profiler, Plan, Io);
      if (!R.ok())
        std::exit(1);
    });
    Rows.push_back({"cct profiler", Ms});
  }
  struct ProfCfg {
    const char *Name;
    SnapshotMode Snapshots;
    EquivalenceStrategy Equivalence;
  };
  const ProfCfg ProfCfgs[] = {
      {"algoprof tracked", SnapshotMode::Tracked,
       EquivalenceStrategy::SomeElements},
      {"algoprof eager", SnapshotMode::Eager,
       EquivalenceStrategy::SomeElements},
      {"algoprof all-elements", SnapshotMode::Eager,
       EquivalenceStrategy::AllElements},
  };
  for (const ProfCfg &C : ProfCfgs) {
    SessionOptions SO;
    SO.Profile.Snapshots = C.Snapshots;
    SO.Profile.Equivalence = C.Equivalence;
    double Ms = bestMsPerRun(3, 4, [&] {
      ProfileSession S(*CP, SO);
      vm::RunResult R = S.run("Main", "main");
      if (!R.ok())
        std::exit(1);
    });
    Rows.push_back({C.Name, Ms});
  }

  report::Table L({"configuration", "ms/run", "overhead vs plain"});
  for (const Row &R : Rows)
    L.addRow({R.Name, fmt(R.Ms), fmt(R.Ms / PlainMs, "%.1fx")});
  std::printf("%s\n", L.str().c_str());

  // --- JSON (schema documented in docs/benchmarks.md). ---------------
  std::string Json = "{\n  \"schema\": \"bench_overhead/v3\",\n";
#if defined(__VERSION__)
  Json += "  \"compiler\": \"" + std::string(__VERSION__) + "\",\n";
#else
  Json += "  \"compiler\": \"unknown\",\n";
#endif
  Json += "  \"obs_enabled\": ";
  Json += ALGOPROF_OBS_ENABLED ? "true" : "false";
  Json += ",\n  \"instructions_per_run\": " + std::to_string(Instr) +
          ",\n  \"results\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    Json += "    {\"name\": \"" + R.Name +
            "\", \"ms_per_run\": " + fmt(R.Ms, "%.4f") + "}";
    Json += I + 1 < Rows.size() ? ",\n" : "\n";
  }
  Json += "  ]\n}\n";
  if (report::writeFile("bench_overhead.json", Json))
    std::printf("wrote bench_overhead.json\n");
  return 0;
}
