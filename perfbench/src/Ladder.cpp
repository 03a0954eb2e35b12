//===- perfbench/src/Ladder.cpp - Per-layer costs of a traced run ---------===//
///
/// \file
/// The layer ladder re-runs a workload's own inputs once per rung, each
/// rung adding one layer, so the differences between rungs are the
/// per-layer costs:
///
///   plain     runPlain (no listener)           -> vm.plain_run_ms
///   no-op     Interpreter::run, no-op listener -> vm.event_delivery_ms
///   tracked   ProfileSession, Tracked sizing   -> core.bookkeeping_ms
///   eager     ProfileSession, Eager sizing     -> core.snapshot_ms
///   all-elem  ProfileSession, AllElements      -> core.all_elements_ms
///   engine    SweepEngine::sweep at Jobs=1     -> parallel.engine_overhead_ms
///   service   one daemon session per item      -> service.*
///
/// The front end is timed stage by stage on the same sources, and the
/// profile back half (grouping, building, fitting, rendering) on the
/// session of the workload's own configuration. Guards, each failing the
/// run: every rung retires the same instruction count; the eager and
/// engine rungs give the same profile fingerprint; the workload's own
/// rung reproduces its reference profile byte for byte; the Tracked and
/// AllElements rungs, which size or identify inputs differently by
/// design, repeat their own fingerprint on every pass; the daemon
/// reproduces the serial profile. A speed-up can then never come from
/// computing less.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bytecode/Compiler.h"
#include "bytecode/Verifier.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "obs/Obs.h"
#include "parallel/SweepEngine.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cstdio>

using namespace algoprof;

namespace perfbench {
namespace {

/// Receives every event of the AlgoProf plan and does nothing: the cost
/// of delivering events alone.
class NoopListener : public vm::ExecutionListener {};

/// One pass over every item; times in milliseconds.
struct Pass {
  double Parse = 0, Sema = 0, Compile = 0, Verify = 0, Prepare = 0,
         Dataflow = 0;
  double Plain = 0, Noop = 0, Tracked = 0, Eager = 0, EagerSub = 0,
         AllElem = 0, Engine = 0;
  double Group = 0, Build = 0, Fit = 0, Render = 0;
  uint64_t Instr = 0, Events = 0, Steps = 0, Nodes = 0, FitEvals = 0,
           JsonBytes = 0;
};

uint64_t counter(const obs::Snapshot &S, obs::Counter C) {
  return S.Counters[static_cast<size_t>(C)];
}

/// Times \p Fn under a span and adds the milliseconds to \p Acc.
template <typename Fn>
void timed(double &Acc, const char *Layer, const char *Name, Fn &&Body) {
  Scope Sp(Layer, Name);
  uint64_t Start = nowNs();
  Body();
  Acc += msSince(Start);
}

class Ladder {
public:
  explicit Ladder(Workload &W) : W(W) {}

  void runPass(Pass &P, DaemonHandle *Service, ServiceSamples *Svc) {
    for (const Item &It : W.ladderItems())
      runItem(It, P, Service, Svc);
  }

private:
  void fail(const Item &It, const std::string &What) {
    W.Fails.fail("ladder " + It.key() + ": " + What);
  }

  /// Fails unless \p Rung's fingerprint on \p It is the same on every
  /// pass.
  void repeats(const Item &It, const std::string &Rung,
               const std::string &Fp) {
    std::string &Prev = Seen[Rung + " " + It.key()];
    if (!Prev.empty() && Prev != Fp)
      fail(It, Rung + " profile changed between passes");
    Prev = Fp;
  }

  std::unique_ptr<prof::CompiledProgram> compileStages(const Item &It,
                                                       Pass &P) {
    const std::string &Src = corpusSource(It.Name);
    DiagnosticEngine Diags;
    auto CP = std::make_unique<prof::CompiledProgram>();
    timed(P.Parse, "frontend", "parseMiniJ",
          [&] { CP->Ast = parseMiniJ(Src, Diags); });
    bool SemaOk = false;
    if (CP->Ast && !Diags.hasErrors())
      timed(P.Sema, "frontend", "runSema",
            [&] { SemaOk = runSema(*CP->Ast, Diags); });
    if (SemaOk)
      timed(P.Compile, "bytecode", "compileProgram",
            [&] { CP->Mod = compileProgram(*CP->Ast, Diags); });
    if (!CP->Mod) {
      fail(It, "front end failed: " + Diags.str());
      return nullptr;
    }
    std::vector<std::string> Problems;
    timed(P.Verify, "bytecode", "bc::verifyModule",
          [&] { Problems = bc::verifyModule(*CP->Mod); });
    if (!Problems.empty()) {
      fail(It, "verifier: " + Problems.front());
      return nullptr;
    }
    timed(P.Prepare, "analysis", "PreparedProgram::prepare",
          [&] { CP->Prep = vm::PreparedProgram::prepare(*CP->Mod); });
    timed(P.Dataflow, "analysis", "computeIndexDataflow",
          [&] { CP->Dataflow = analysis::computeIndexDataflow(*CP->Ast); });
    return CP;
  }

  /// Runs \p Seeds through a ProfileSession with \p PO, timing the runs
  /// into \p Acc; returns the session for the back half.
  std::unique_ptr<prof::ProfileSession>
  session(const prof::CompiledProgram &CP, const std::vector<int64_t> &Seeds,
          const prof::ProfileOptions &PO, double &Acc, const char *Name,
          uint64_t &Instr, bool &Ok) {
    prof::SessionOptions SO;
    SO.Profile = PO;
    auto S = std::make_unique<prof::ProfileSession>(CP, SO);
    timed(Acc, "core", Name, [&] {
      for (int64_t Seed : Seeds) {
        vm::IoChannels Io;
        Io.Input.push_back(Seed);
        vm::RunResult R = S->run("Main", "main", Io);
        Ok = Ok && R.ok();
        Instr += R.InstrCount;
      }
    });
    return S;
  }

  void runItem(const Item &It, Pass &P, DaemonHandle *Service,
               ServiceSamples *Svc) {
    auto CP = compileStages(It, P);
    if (!CP)
      return;
    bool Ok = true;

    uint64_t PlainInstr = 0;
    timed(P.Plain, "vm", "runPlain", [&] {
      for (int64_t Seed : It.Seeds) {
        vm::IoChannels Io;
        Io.Input.push_back(Seed);
        vm::RunResult R = prof::runPlain(*CP, "Main", "main", &Io);
        Ok = Ok && R.ok();
        PlainInstr += R.InstrCount;
      }
    });
    P.Instr += PlainInstr;

    uint64_t NoopInstr = 0;
    {
      vm::Interpreter Interp(CP->Prep);
      vm::InstrumentationPlan Plan = prof::makeInstrumentationPlan(*CP, false);
      NoopListener L;
      int32_t Entry = CP->entryMethod("Main", "main");
      timed(P.Noop, "vm", "Interpreter::run (no-op listener)", [&] {
        for (int64_t Seed : It.Seeds) {
          vm::IoChannels Io;
          Io.Input.push_back(Seed);
          vm::RunResult R = Interp.run(Entry, &L, Plan, Io);
          Ok = Ok && R.ok();
          NoopInstr += R.InstrCount;
          Interp.heap().recycle();
        }
      });
    }

    prof::ProfileOptions TrackedPO, EagerPO, AllPO;
    TrackedPO.Snapshots = prof::SnapshotMode::Tracked;
    EagerPO.Snapshots = prof::SnapshotMode::Eager;
    AllPO.Snapshots = prof::SnapshotMode::Eager;
    AllPO.Equivalence = prof::EquivalenceStrategy::AllElements;
    bool OwnIsAll = W.profileOptions().Equivalence ==
                    prof::EquivalenceStrategy::AllElements;

    uint64_t TrackedInstr = 0, EagerInstr = 0;
    auto Tracked = session(*CP, It.Seeds, TrackedPO, P.Tracked,
                           "ProfileSession::run (tracked)", TrackedInstr, Ok);
    obs::Snapshot Before = obs::snapshot();
    double EagerMs = 0;
    auto Eager = session(*CP, It.Seeds, EagerPO, EagerMs,
                         "ProfileSession::run (eager)", EagerInstr, Ok);
    P.Eager += EagerMs;
    obs::Snapshot AfterEager = obs::snapshot();
    std::string EagerFp = fingerprint(Eager->buildProfiles());
    // Tracked sizing is inexact for structures that shrink, so its
    // profile is held to itself.
    repeats(It, "tracked", fingerprint(Tracked->buildProfiles()));

    // AllElements on the workload's own inputs when they are its own
    // configuration; elsewhere on each item's smallest input only (a
    // probe: on the corpus's 2-d array programs one AllElements run
    // takes ~0.4 s), against Eager on exactly those inputs.
    std::vector<int64_t> Small = It.Seeds;
    if (!OwnIsAll)
      Small = {*std::min_element(It.Seeds.begin(), It.Seeds.end())};
    uint64_t SmallInstr = EagerInstr, AllInstr = 0;
    std::unique_ptr<prof::ProfileSession> EagerSmall;
    if (Small.size() == It.Seeds.size()) {
      P.EagerSub += EagerMs; // Same inputs as the eager rung.
    } else {
      SmallInstr = 0;
      EagerSmall = session(*CP, Small, EagerPO, P.EagerSub,
                           "ProfileSession::run (eager, small inputs)",
                           SmallInstr, Ok);
    }
    obs::Snapshot BeforeAll = obs::snapshot();
    auto All = session(*CP, Small, AllPO, P.AllElem,
                       "ProfileSession::run (all-elements)", AllInstr, Ok);
    obs::Snapshot AfterAll = obs::snapshot().deltaFrom(BeforeAll);
    // AllElements identifies inputs differently from SomeElements, so
    // its profile is held to itself.
    repeats(It, "all-elements", fingerprint(All->buildProfiles()));
    if (AllInstr != SmallInstr)
      fail(It, "all-elements rung retired a different instruction count");

    uint64_t EngineInstr = 0;
    std::string EngineJson;
    {
      prof::SessionOptions SO;
      SO.Profile = EagerPO;
      SO.Seeds = It.Seeds;
      SO.Jobs = 1;
      parallel::SweepEngine E(*CP, SO);
      parallel::SweepResult SR;
      timed(P.Engine, "parallel", "SweepEngine::sweep",
            [&] { SR = E.sweep("Main", "main"); });
      for (const vm::RunResult &R : SR.Runs) {
        Ok = Ok && R.ok();
        EngineInstr += R.InstrCount;
      }
      std::vector<prof::AlgorithmProfile> EP = E.buildProfiles();
      if (fingerprint(EP) != EagerFp)
        fail(It, "sweep engine and serial session profiles differ");
      EngineJson = renderJson(E.tree(), E.inputs(), EP, &SR.Failures);
    }

    if (!Ok)
      fail(It, "a run failed");
    if (NoopInstr != PlainInstr || TrackedInstr != PlainInstr ||
        EagerInstr != PlainInstr || EngineInstr != PlainInstr)
      fail(It, "rungs retired different instruction counts");

    // Counts and the profile back half on the workload's own session.
    prof::ProfileSession &Own = OwnIsAll ? *All : *Eager;
    obs::Snapshot Counts = OwnIsAll ? AfterAll : AfterEager.deltaFrom(Before);
    P.Events += counter(Counts, obs::Counter::ListenerEvents);
    P.Steps += counter(Counts, obs::Counter::TraversalSteps);
    P.Nodes += counter(Counts, obs::Counter::TreeNodes);

    timed(P.Group, "core", "groupAlgorithms", [&] {
      prof::groupAlgorithms(Own.tree(), Own.inputs(), CP->Prep,
                            prof::GroupingStrategy::CommonInput,
                            &CP->Dataflow);
    });
    std::vector<prof::AlgorithmProfile> Ps;
    timed(P.Build, "core", "buildProfilesFrom", [&] {
      Ps = prof::buildProfilesFrom(Own.tree(), Own.inputs(), *CP);
    });
    obs::Snapshot BeforeFit = obs::snapshot();
    timed(P.Fit, "fitting", "fit::fitBest", [&] {
      for (const prof::AlgorithmProfile &AP : Ps)
        for (const auto &S : AP.Series)
          if (S.Interesting)
            fit::fitBest(S.Series);
    });
    P.FitEvals += counter(obs::snapshot().deltaFrom(BeforeFit),
                          obs::Counter::FitEvaluations);
    std::string Json;
    std::vector<resilience::FailureInfo> NoFailures;
    timed(P.Render, "report", "Reporter::render (json)", [&] {
      Json = renderJson(Own.tree(), Own.inputs(), Ps, &NoFailures);
    });
    P.JsonBytes += Json.size();
    W.check(It.key(), knownDivergent(It.Name) ? EngineJson : Json);

    if (!Service)
      return;
    // The same job through the daemon must reproduce the serial
    // session's bytes (the daemon profiles with the default Eager
    // SomeElements configuration), or the engine's for the programs
    // where the two differ.
    std::string RefJson;
    if (knownDivergent(It.Name)) {
      RefJson = EngineJson;
    } else if (&Own == Eager.get()) {
      RefJson = Json;
    } else {
      std::vector<prof::AlgorithmProfile> EP = Eager->buildProfiles();
      RefJson = renderJson(Eager->tree(), Eager->inputs(), EP, &NoFailures);
    }
    service::JobRequest Req;
    Req.Corpus = It.Name;
    Req.Seeds = It.Seeds;
    SessionTiming T;
    {
      Scope Sp("service", "session " + It.Name);
      T = runSession(Service->Path, Req);
    }
    Svc->add(T);
    if (!T.Ok)
      fail(It, "service session: " + T.Error);
    else if (T.Profile != RefJson)
      fail(It, "daemon profile differs from its reference");
  }

  Workload &W;
  std::map<std::string, std::string> Seen; ///< "rung key" -> fingerprint.
};

std::vector<double> field(const std::vector<Pass> &Ps, double Pass::*F) {
  std::vector<double> V;
  for (const Pass &P : Ps)
    V.push_back(P.*F);
  return V;
}

} // namespace

void runLadder(Workload &W, const Config &C, Metrics &Out) {
  JobTracing JT(true);
  uint64_t LadderStart = nowNs();
  Ladder L(W);

  // The service rung needs a daemon unless the workload's own loop
  // already measured daemon sessions under load.
  ServiceSamples &LoopSvc = W.service();
  bool SvcFromLoop = LoopSvc.Sessions > 0;
  ServiceSamples RungSvc;
  std::unique_ptr<DaemonHandle> D;
  if (!SvcFromLoop)
    D = startDaemon(C, 1, "ladder");

  // Three passes when they fit in the run's time budget (3..10 s).
  std::vector<Pass> Passes;
  double Budget = std::clamp(C.Seconds, 3.0, 10.0) * 1e3;
  do {
    Pass P;
    L.runPass(P, D.get(), &RungSvc);
    Passes.push_back(P);
  } while (Passes.size() < 3 && msSince(LadderStart) * 1.5 < Budget);
  stopDaemon(std::move(D), &RungSvc);

  for (const Pass &P : Passes)
    if (P.Instr != Passes[0].Instr || P.Events != Passes[0].Events ||
        P.Steps != Passes[0].Steps || P.Nodes != Passes[0].Nodes ||
        P.FitEvals != Passes[0].FitEvals || P.JsonBytes != Passes[0].JsonBytes)
      W.Fails.fail("ladder: exact counts changed between passes");

  auto Med = [&](double Pass::*F) { return median(field(Passes, F)); };
  const Pass &P0 = Passes[0];
  double Plain = Med(&Pass::Plain), Noop = Med(&Pass::Noop),
         Tracked = Med(&Pass::Tracked), Eager = Med(&Pass::Eager);
  Out.set("frontend.parse_ms", Med(&Pass::Parse), "ms");
  Out.set("frontend.sema_ms", Med(&Pass::Sema), "ms");
  Out.set("bytecode.compile_ms", Med(&Pass::Compile), "ms");
  Out.set("bytecode.verify_ms", Med(&Pass::Verify), "ms");
  Out.set("analysis.prepare_ms", Med(&Pass::Prepare), "ms");
  Out.set("analysis.dataflow_ms", Med(&Pass::Dataflow), "ms");
  Out.set("vm.instructions", static_cast<double>(P0.Instr), "count");
  Out.set("vm.plain_run_ms", Plain, "ms");
  Out.set("vm.event_delivery_ms", Noop - Plain, "ms");
  Out.set("vm.overhead_x_tracked", Tracked / Plain, "x");
  Out.set("vm.overhead_x_eager", Eager / Plain, "x");
  Out.set("core.bookkeeping_ms", Tracked - Noop, "ms");
  Out.set("core.snapshot_ms", Eager - Tracked, "ms");
  Out.set("core.all_elements_ms", Med(&Pass::AllElem) - Med(&Pass::EagerSub),
          "ms");
  Out.set("core.listener_events", static_cast<double>(P0.Events), "count");
  Out.set("core.traversal_steps", static_cast<double>(P0.Steps), "count");
  Out.set("core.tree_nodes", static_cast<double>(P0.Nodes), "count");
  Out.set("core.grouping_ms", Med(&Pass::Group), "ms");
  Out.set("core.build_profiles_ms", Med(&Pass::Build), "ms");
  Out.set("fitting.fit_ms", Med(&Pass::Fit), "ms");
  Out.set("fitting.fit_evaluations", static_cast<double>(P0.FitEvals),
          "count");
  Out.set("parallel.engine_overhead_ms", Med(&Pass::Engine) - Eager, "ms");
  Out.set("report.json_render_ms", Med(&Pass::Render), "ms");
  Out.set("report.json_bytes", static_cast<double>(P0.JsonBytes), "bytes");

  ServiceSamples &Svc = SvcFromLoop ? LoopSvc : RungSvc;
  {
    std::lock_guard<std::mutex> G(Svc.M);
    double Sessions = static_cast<double>(std::max<uint64_t>(1, Svc.Sessions));
    Out.set("service.accept_ms", median(Svc.AcceptMs), "ms");
    Out.set("service.first_delta_ms_p50", median(Svc.FirstDeltaMs), "ms");
    Out.set("service.delta_gap_ms", median(Svc.GapMs), "ms");
    Out.set("service.tail_ms", median(Svc.TailMs), "ms");
    Out.set("service.bytes_per_session",
            static_cast<double>(Svc.Bytes) / Sessions, "bytes");
    Out.set("service.deltas_dropped", static_cast<double>(Svc.Dropped),
            "count");
  }

  // Self time per layer, per ladder pass.
  std::map<std::string, double> Self = tracer().selfMsByLayer(LadderStart);
  for (const char *Layer : {"frontend", "bytecode", "analysis", "vm", "core",
                            "fitting", "parallel", "report", "service"})
    Out.set(std::string(Layer) + ".self_ms",
            Self[Layer] / static_cast<double>(Passes.size()), "ms");
  std::fprintf(stderr, "ladder: %zu pass(es) in %.0f ms\n", Passes.size(),
               msSince(LadderStart));
}

} // namespace perfbench
