//===- perfbench/src/Workloads.cpp ----------------------------------------===//

#include "Workloads.h"

#include "core/Session.h"
#include "parallel/CorpusRunner.h"
#include "parallel/SweepEngine.h"
#include "programs/Programs.h"
#include "service/Daemon.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

using namespace algoprof;

namespace perfbench {

std::string Item::key() const {
  std::string K = Name + "@";
  for (size_t I = 0; I < Seeds.size(); ++I)
    K += (I ? "," : "") + std::to_string(Seeds[I]);
  return K;
}

Workload::~Workload() = default;

void Workload::check(const std::string &Key, const std::string &Got) {
  auto It = Refs.find(Key);
  if (It == Refs.end()) {
    Fails.fail(Key + ": no reference profile");
    return;
  }
  if (It->second == Got)
    return;
  // Leave the evidence: both documents, once per key.
  std::string Base = Cfg.TmpDir + "/mismatch-" + digest(Key);
  if (!std::ifstream(Base + ".got.json")) {
    ::mkdir(Cfg.TmpDir.c_str(), 0700);
    std::ofstream(Base + ".ref.json") << It->second;
    std::ofstream(Base + ".got.json") << Got;
  }
  Fails.fail(Key + ": profile differs from its reference (see " + Base +
             ".{ref,got}.json)");
}

std::vector<Sample> Workload::loop(double Seconds, bool TraceOddJobs) {
  std::vector<Sample> Out;
  uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  do {
    uint64_t I = NextJob++;
    Out.push_back(runJob(I, TraceOddJobs && I % 2 == 1));
  } while (nowNs() < End);
  return Out;
}

void ServiceSamples::add(const SessionTiming &T) {
  std::lock_guard<std::mutex> G(M);
  AcceptMs.push_back(T.AcceptMs);
  FirstDeltaMs.push_back(T.FirstDeltaMs);
  TailMs.push_back(T.TailMs);
  GapMs.insert(GapMs.end(), T.GapsMs.begin(), T.GapsMs.end());
}

//===----------------------------------------------------------------------===//
// Daemon plumbing
//===----------------------------------------------------------------------===//

DaemonHandle::~DaemonHandle() = default;

std::unique_ptr<DaemonHandle> startDaemon(const Config &C, unsigned Workers,
                                          const std::string &Tag) {
  ::mkdir(C.TmpDir.c_str(), 0700);
  static std::atomic<int> Counter{0};
  auto H = std::make_unique<DaemonHandle>();
  // Relative to the working directory: sun_path holds only 107 bytes,
  // and the checkout's absolute path may be longer.
  H->Path = C.TmpDir + "/" + Tag + "-" + std::to_string(::getpid()) + "-" +
            std::to_string(Counter++) + ".sock";
  service::DaemonOptions O;
  O.SocketPath = H->Path;
  O.Workers = Workers;
  H->D = std::make_unique<service::Daemon>(O);
  std::string Err;
  if (!H->D->start(Err)) {
    std::fprintf(stderr, "error: daemon start failed: %s\n", Err.c_str());
    std::exit(2);
  }
  return H;
}

void stopDaemon(std::unique_ptr<DaemonHandle> D, ServiceSamples *Stats) {
  if (!D)
    return;
  if (Stats) {
    service::Daemon::Stats S = D->D->stats();
    std::lock_guard<std::mutex> G(Stats->M);
    Stats->Sessions += S.Completed;
    Stats->Bytes += S.BytesStreamed;
    Stats->Dropped += S.DeltasDropped;
  }
  D->D->stop();
}

SessionTiming runSession(const std::string &SocketPath,
                         const service::JobRequest &R) {
  SessionTiming T;
  uint64_t Start = nowNs();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un A{};
  A.sun_family = AF_UNIX;
  std::strncpy(A.sun_path, SocketPath.c_str(), sizeof(A.sun_path) - 1);
  if (Fd < 0 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    T.Error = "transport: connect failed";
    if (Fd >= 0)
      ::close(Fd);
    return T;
  }
  if (!service::sendFrame(Fd, service::FrameType::Job,
                          service::encodeJobRequest(R))) {
    T.Error = "transport: send failed";
    ::close(Fd);
    return T;
  }
  uint64_t LastDelta = 0;
  bool Accepted = false, Done = false;
  while (!Done) {
    service::Frame F;
    if (service::readFrame(Fd, F, 1u << 30) != service::ReadStatus::Ok) {
      T.Error = "transport: stream ended early";
      break;
    }
    uint64_t Now = nowNs();
    switch (F.Type) {
    case service::FrameType::Accepted:
      Accepted = true;
      T.AcceptMs = static_cast<double>(Now - Start) / 1e6;
      break;
    case service::FrameType::RunDelta:
      if (T.Deltas == 0)
        T.FirstDeltaMs = static_cast<double>(Now - Start) / 1e6;
      else
        T.GapsMs.push_back(static_cast<double>(Now - LastDelta) / 1e6);
      LastDelta = Now;
      ++T.Deltas;
      break;
    case service::FrameType::Profile:
      T.Profile = std::move(F.Payload);
      break;
    case service::FrameType::Done:
      T.TotalMs = static_cast<double>(Now - Start) / 1e6;
      T.TailMs = LastDelta ? static_cast<double>(Now - LastDelta) / 1e6 : 0;
      Done = true;
      break;
    case service::FrameType::Error: {
      service::ErrorMsg E;
      service::parseError(F.Payload, E);
      T.Error = "rejected: " + E.Code + ": " + E.Message;
      Done = true;
      break;
    }
    default:
      T.Error = "transport: unexpected frame";
      Done = true;
    }
  }
  ::close(Fd);
  T.Ok = T.Error.empty() && Accepted && !T.Profile.empty();
  if (T.Ok == false && T.Error.empty())
    T.Error = "incomplete session";
  return T;
}

//===----------------------------------------------------------------------===//
// References
//===----------------------------------------------------------------------===//

bool knownDivergent(const std::string &Name) {
  return Name == "table1_tree-linked-binary" ||
         Name == "table1_tree-linked-nary";
}

namespace {

/// The reference profile: ProfileDriver at Jobs=1 over \p Seeds (the
/// serial session), or the one-worker sweep engine for knownDivergent
/// programs.
std::string referenceProfile(const std::string &Name,
                             const prof::CompiledProgram &CP,
                             const std::vector<int64_t> &Seeds,
                             const prof::ProfileOptions &PO, bool &Ok,
                             std::vector<prof::AlgorithmProfile> *Keep =
                                 nullptr) {
  prof::SessionOptions SO;
  SO.Profile = PO;
  SO.Seeds = Seeds;
  SO.Jobs = 1;
  std::vector<prof::AlgorithmProfile> P;
  std::string J;
  if (knownDivergent(Name)) {
    parallel::SweepEngine E(CP, SO);
    parallel::SweepResult SR = E.sweep("Main", "main");
    Ok = SR.allOk();
    P = E.buildProfiles();
    J = renderJson(E.tree(), E.inputs(), P, &SR.Failures);
    std::printf("# known-divergence %s serial session and sweep engine "
                "profiles differ\n",
                Name.c_str());
  } else {
    prof::ProfileDriver D(CP, SO);
    std::vector<vm::RunResult> Rs = D.runAll("Main", "main");
    Ok = D.usable();
    for (const vm::RunResult &R : Rs)
      Ok = Ok && R.ok();
    P = D.buildProfiles();
    J = renderJson(D.tree(), D.inputs(), P, &D.failures());
  }
  if (Keep)
    *Keep = std::move(P);
  return J;
}

} // namespace

void Workload::addReference(const Item &It, const prof::CompiledProgram &CP,
                            std::vector<prof::AlgorithmProfile> *Keep) {
  bool Ok = false;
  std::string J =
      referenceProfile(It.Name, CP, It.Seeds, profileOptions(), Ok, Keep);
  if (!Ok)
    Fails.fail(It.key() + ": reference run failed");
  std::printf("# ref %s %s\n", It.key().c_str(), digest(J).c_str());
  Refs[It.key()] = std::move(J);
}

namespace {

void printOut(const std::string &Key, const std::string &Json) {
  std::printf("# out %s %s\n", Key.c_str(), digest(Json).c_str());
}

std::vector<std::string> corpusNames() {
  std::vector<std::string> N;
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    N.push_back(P.Name);
  return N;
}

/// Fisher-Yates with the benchmark's own generator.
template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(R.range(0, I - 1))]);
}

//===----------------------------------------------------------------------===//
// corpus_batch
//===----------------------------------------------------------------------===//

/// The 31 built-in programs × a 12-seed grid around 4..48, one fresh
/// parallel::CorpusRunner per batch at Jobs = nproc — what
/// `algoprof --corpus builtin` does — with every program's profile
/// rendered by the json reporter.
class CorpusBatch : public Workload {
public:
  explicit CorpusBatch(const Config &C) : Workload(C) {
    Rng R(C.Seed);
    Names = corpusNames();
    shuffle(Names, R);
    Grid = jitteredGrid(R, 4, 4, 12, 1);
  }

  void setUp() override {
    Entries.clear();
    for (const std::string &N : Names)
      Entries.push_back({N, corpusSource(N)});
    // Every entry must compile before a batch is timed.
    for (const parallel::CorpusEntry &E : Entries)
      compileOrDie(E.Name, E.Source);
  }

  void prepareReferences() override {
    for (const parallel::CorpusEntry &E : Entries)
      addReference({E.Name, Grid}, *compileOrDie(E.Name, E.Source));
  }

  Sample runJob(uint64_t Index, bool Traced) override {
    JobTracing JT(Traced);
    prof::SessionOptions SO;
    SO.Profile = profileOptions();
    SO.Seeds = Grid;
    SO.Jobs = static_cast<int>(workers());
    std::vector<std::pair<std::string, std::string>> Docs;
    std::vector<std::string> Broken;
    Sample S;
    S.Traced = Traced;
    uint64_t Start = nowNs();
    {
      Scope Job("bench", "corpus_batch job", Index + 1);
      parallel::CorpusRunner Runner(SO);
      parallel::CorpusResult Res;
      {
        Scope Sp("parallel", "CorpusRunner::run");
        Res = Runner.run(Entries, "Main", "main");
      }
      for (const parallel::CorpusProgramResult &P : Res.Programs) {
        S.Runs += P.Sweep.Runs.size();
        if (!P.ok()) {
          Broken.push_back(P.Name);
          continue;
        }
        std::vector<prof::AlgorithmProfile> Ps;
        {
          Scope Sp("core", "buildProfilesFrom");
          Ps = prof::buildProfilesFrom(P.Engine->tree(), P.Engine->inputs(),
                                       *P.Program);
        }
        Scope Sp("report", "json render");
        Docs.push_back({P.Name, renderJson(P.Engine->tree(),
                                           P.Engine->inputs(), Ps,
                                           &P.Sweep.Failures)});
      }
    }
    S.Ms = msSince(Start);
    Fails.attempt(Entries.size());
    for (const std::string &B : Broken)
      Fails.fail(B + ": corpus program failed");
    for (const auto &[Name, Doc] : Docs) {
      Item It{Name, Grid};
      check(It.key(), Doc);
      if (Index == 0)
        printOut(It.key(), Doc);
    }
    return S;
  }

  std::vector<Item> ladderItems() const override {
    std::vector<Item> Items;
    for (const std::string &N : Names)
      Items.push_back({N, Grid});
    return Items;
  }

  unsigned workers() const override { return Cfg.Jobs ? Cfg.Jobs : nproc(); }
  double tailQuantile() const override { return 0.9; } // ~170 jobs in 25 s.

private:
  std::vector<std::string> Names;
  std::vector<int64_t> Grid;
  std::vector<parallel::CorpusEntry> Entries;
};

//===----------------------------------------------------------------------===//
// sweep_eager and all_elements
//===----------------------------------------------------------------------===//

/// Serial ProfileDriver sweeps (Jobs=1) of programs compiled once in
/// set-up; one job sweeps every program. sweep_eager: the Fig. 1
/// insertion sort at sizes around 40..400, Eager sizing. all_elements:
/// the three seeded insertion sorts (random, sorted, reversed order, in
/// a seeded order) at sizes 4..24 under AllElements equivalence.
class Sweep : public Workload {
public:
  Sweep(const Config &C, bool AllElements)
      : Workload(C), AllElements(AllElements) {
    Rng R(C.Seed);
    if (AllElements) {
      Names = {"seeded_insertion_sort_random", "seeded_insertion_sort_sorted",
               "seeded_insertion_sort_reversed"};
      // AllElements cost grows about as n^4 here and with the inputs a
      // session has accumulated, so both a jittered grid and a seeded
      // run order move a job's cost by ~10%: the seed draws only the
      // program order.
      shuffle(Names, R);
      Grid = {4, 8, 12, 16, 20, 24};
    } else {
      Names = {"seeded_insertion_sort_random"};
      Grid = jitteredGrid(R, 40, 40, 10, 3);
    }
  }

  void setUp() override {
    Programs.clear();
    for (const std::string &N : Names)
      Programs.push_back(compileOrDie(N, corpusSource(N)));
  }

  void prepareReferences() override {
    for (size_t I = 0; I < Names.size(); ++I) {
      std::vector<prof::AlgorithmProfile> Ps;
      addReference({Names[I], Grid}, *Programs[I], &Ps);
      if (!AllElements)
        checkFig1Oracle(Ps);
    }
  }

  Sample runJob(uint64_t Index, bool Traced) override {
    JobTracing JT(Traced);
    prof::SessionOptions SO;
    SO.Profile = profileOptions();
    SO.Seeds = Grid;
    SO.Jobs = 1;
    Sample S;
    S.Traced = Traced;
    std::vector<std::string> Docs;
    std::vector<bool> Ok;
    uint64_t Start = nowNs();
    {
      Scope Job("bench", Cfg.Workload + " job", Index + 1);
      for (const auto &CP : Programs) {
        prof::ProfileDriver D(*CP, SO);
        std::vector<vm::RunResult> Rs;
        {
          Scope Sp("core", "ProfileDriver::runAll");
          Rs = D.runAll("Main", "main");
        }
        bool AllOk = D.usable();
        for (const vm::RunResult &R : Rs)
          AllOk = AllOk && R.ok();
        Ok.push_back(AllOk);
        S.Runs += Rs.size();
        std::vector<prof::AlgorithmProfile> Ps;
        {
          Scope Sp("core", "ProfileDriver::buildProfiles");
          Ps = D.buildProfiles();
        }
        Scope Sp("report", "json render");
        Docs.push_back(renderJson(D.tree(), D.inputs(), Ps, &D.failures()));
      }
    }
    S.Ms = msSince(Start);
    Fails.attempt(Programs.size());
    for (size_t I = 0; I < Programs.size(); ++I) {
      Item It{Names[I], Grid};
      if (!Ok[I])
        Fails.fail(It.key() + ": a run failed");
      check(It.key(), Docs[I]);
      if (Index == 0)
        printOut(It.key(), Docs[I]);
    }
    return S;
  }

  std::vector<Item> ladderItems() const override {
    std::vector<Item> Items;
    for (const std::string &N : Names)
      Items.push_back({N, Grid});
    return Items;
  }

  /// ~80 (sweep_eager) or ~115 (all_elements) jobs in 25 s.
  double tailQuantile() const override { return AllElements ? 0.85 : 0.8; }

  prof::ProfileOptions profileOptions() const override {
    prof::ProfileOptions PO;
    PO.Snapshots = prof::SnapshotMode::Eager;
    if (AllElements)
      PO.Equivalence = prof::EquivalenceStrategy::AllElements;
    return PO;
  }

private:
  /// An oracle from outside the profiler: random-order insertion sort
  /// makes about n²/4 inner-loop steps (the paper's Fig. 1 fit is
  /// 0.25·n²). The dominant algorithm's fit must grow as n² (exponent
  /// within 0.1 of 2) and give within 10% of 0.25·n² at the largest
  /// size. The fitter picks the a·n² model on most grids and a power
  /// law such as 0.212·n^2.03 on some; both pass.
  void checkFig1Oracle(const std::vector<prof::AlgorithmProfile> &Ps) {
    const prof::AlgorithmProfile::InputSeries *Best = nullptr;
    double BestY = -1, MaxX = 0;
    for (const prof::AlgorithmProfile &AP : Ps) {
      const prof::AlgorithmProfile::InputSeries *S = AP.primarySeries();
      if (!S || S->Series.empty())
        continue;
      for (const prof::SeriesPoint &Pt : S->Series)
        if (Pt.Y > BestY) {
          BestY = Pt.Y;
          MaxX = Pt.X;
          Best = S;
        }
    }
    Fails.attempt();
    bool Ok = Best && Best->Fit.Valid &&
              std::fabs(Best->Fit.growthExponent() - 2) <= 0.1;
    if (Ok) {
      const fit::FitResult &F = Best->Fit;
      double Exponent = F.Kind == fit::ModelKind::PowerLaw ? F.Exponent : 2;
      double Fitted = F.Coefficient * std::pow(MaxX, Exponent);
      Ok = std::fabs(Fitted / (0.25 * MaxX * MaxX) - 1) <= 0.1;
    }
    std::string Got = Best ? Best->Fit.formula() : std::string("no series");
    if (!Ok) {
      Fails.fail("Fig. 1 oracle: insertion sort did not fit ~0.25*n^2 (got " +
                 Got + ")");
      return;
    }
    std::printf("# oracle fig1 %s\n", Got.c_str());
  }

  bool AllElements;
  std::vector<std::string> Names;
  std::vector<int64_t> Grid;
  std::vector<std::unique_ptr<prof::CompiledProgram>> Programs;
};

//===----------------------------------------------------------------------===//
// daemon_sessions
//===----------------------------------------------------------------------===//

/// An in-process service::Daemon (Workers = nproc, no journal, wire v2)
/// driven by a closed loop of nproc client threads. Each job is one
/// session `corpus=<name>` over a seed grid around 4..24; the workload
/// seed draws the name of every job index.
class DaemonSessions : public Workload {
public:
  explicit DaemonSessions(const Config &C) : Workload(C) {
    Rng R(C.Seed);
    Names = corpusNames();
    Grid = jitteredGrid(R, 4, 4, 6, 1);
  }
  ~DaemonSessions() override { stopDaemon(std::move(D), nullptr); }

  void setUp() override { D = startDaemon(Cfg, workers(), "daemon"); }
  void tearDown() override { stopDaemon(std::move(D), nullptr); }

  void prepareReferences() override {
    for (const std::string &N : Names)
      addReference({N, Grid}, *compileOrDie(N, corpusSource(N)));
  }

  std::vector<Sample> loop(double Seconds, bool TraceOddJobs) override {
    std::vector<Sample> Out;
    std::mutex OutM;
    std::atomic<uint64_t> Next{NextJob};
    uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    std::vector<std::thread> Clients;
    for (unsigned T = 0; T < workers(); ++T)
      Clients.emplace_back([&] {
        do {
          uint64_t I = Next++;
          Sample S = runJob(I, TraceOddJobs && I % 2 == 1);
          std::lock_guard<std::mutex> G(OutM);
          Out.push_back(S);
        } while (nowNs() < End);
      });
    for (std::thread &T : Clients)
      T.join();
    NextJob = Next;
    return Out;
  }

  /// The daemon's own totals (bytes, drops) for the service metrics.
  void finish() override { stopDaemon(std::move(D), &Service); }

  Sample runJob(uint64_t Index, bool Traced) override {
    JobTracing JT(Traced);
    Rng R(Cfg.Seed * 0x9e3779b97f4a7c15ull + Index);
    Item It{Names[static_cast<size_t>(R.next() % Names.size())], Grid};
    service::JobRequest Req;
    Req.Corpus = It.Name;
    Req.Seeds = Grid;
    SessionTiming T;
    {
      Scope Job("bench", "daemon_sessions job", Index + 1);
      Scope Sp("service", "session " + It.Name);
      T = runSession(D->Path, Req);
    }
    Service.add(T);
    Fails.attempt();
    if (!T.Ok)
      Fails.fail(It.key() + ": " + T.Error);
    else
      check(It.key(), T.Profile);
    if (Index == 0)
      printOut(It.key(), T.Profile);
    Sample S;
    S.Ms = T.TotalMs;
    S.Traced = Traced;
    S.Runs = T.Ok ? Grid.size() : 0;
    return S;
  }

  std::vector<Item> ladderItems() const override {
    std::vector<Item> Items;
    for (const std::string &N : Names)
      Items.push_back({N, Grid});
    return Items;
  }

  unsigned workers() const override { return Cfg.Jobs ? Cfg.Jobs : nproc(); }
  double tailQuantile() const override { return 0.99; } // Thousands of jobs.

private:
  std::vector<std::string> Names;
  std::vector<int64_t> Grid;
  std::unique_ptr<DaemonHandle> D;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const Config &C) {
  if (C.Workload == "corpus_batch")
    return std::make_unique<CorpusBatch>(C);
  if (C.Workload == "sweep_eager")
    return std::make_unique<Sweep>(C, /*AllElements=*/false);
  if (C.Workload == "all_elements")
    return std::make_unique<Sweep>(C, /*AllElements=*/true);
  if (C.Workload == "daemon_sessions")
    return std::make_unique<DaemonSessions>(C);
  return nullptr;
}

} // namespace perfbench
