//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--jobs N] [--trace-out FILE] [--commit SHA]
///
/// Runs one workload in this process and prints, as the last line of
/// stdout, {"correct", "attempted", "failed", "metrics"}. --trace 0
/// reports the end-to-end metrics; --trace 1 records spans, runs the
/// layer ladder and reports the per-layer metrics. Lines before it:
/// "# stamp {...}" (the machine stamp), "# ref KEY DIGEST" (reference
/// profiles) and "# out KEY DIGEST" (the warm-up job's profiles).
/// Exit status: 0 when every output was correct, 1 otherwise, 2 on a
/// usage error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Obs.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace algoprof;
using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload corpus_batch|"
               "sweep_eager|daemon_sessions|all_elements --seed N "
               "--seconds S --trace 0|1 [--jobs N] [--trace-out FILE] "
               "[--commit SHA]\n",
               Why);
  std::exit(2);
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  if (!*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

/// How many times set-up runs; setup_s is their median.
constexpr int SetupReps = 31;

void printStamp(const Config &C, const std::string &Commit) {
  std::string S = "{";
#if defined(__VERSION__)
  S += "\"compiler\": " + jsonString(__VERSION__);
#else
  S += "\"compiler\": \"unknown\"";
#endif
  S += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
  S += ", \"nproc\": " + std::to_string(nproc());
  S += ", \"obs_enabled\": ";
  S += ALGOPROF_OBS_ENABLED ? "true" : "false";
  S += ", \"threaded_dispatch\": ";
  S += vm::threadedDispatchCompiled() ? "true" : "false";
  S += ", \"commit\": " + jsonString(Commit);
  S += ", \"workload\": " + jsonString(C.Workload);
  S += ", \"seed\": " + std::to_string(C.Seed);
  S += ", \"seconds\": " + jsonNumber(C.Seconds);
  S += ", \"trace\": ";
  S += C.Trace ? "true" : "false";
  S += ", \"jobs\": " + std::to_string(C.Jobs ? C.Jobs : nproc()) + "}";
  std::printf("# stamp %s\n", S.c_str());
}

uint64_t counter(const obs::Snapshot &S, obs::Counter C) {
  return S.Counters[static_cast<size_t>(C)];
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  std::string Commit = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, N))
        usage("--seed takes a non-negative integer");
      C.Seed = N;
      HaveSeed = true;
    } else if (A == "--seconds") {
      char *End = nullptr;
      C.Seconds = std::strtod(V, &End);
      if (*End || !(C.Seconds > 0) || C.Seconds > 600)
        usage("--seconds takes a number in (0, 600]");
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace takes 0 or 1");
      C.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--jobs") {
      if (!parseUnsigned(V, N) || N == 0 || N > 256)
        usage("--jobs takes an integer in [1, 256]");
      C.Jobs = static_cast<unsigned>(N);
    } else if (A == "--trace-out") {
      C.TraceOut = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  std::unique_ptr<Workload> W = makeWorkload(C);
  if (!W)
    usage(("unknown workload " + C.Workload).c_str());

  printStamp(C, Commit);
  if (C.Jobs > nproc())
    std::fprintf(stderr,
                 "warning: --jobs %u exceeds nproc (%u); pooled workloads "
                 "will oversubscribe the machine\n",
                 C.Jobs, nproc());
  std::fflush(stdout);

  // The host's speed drifts, two ways. Its cores run slower at times:
  // on a shared 4-core host the same job's median ranged over 25%
  // between 6-second windows of one process, while its ratio to the
  // calibration kernel ranged over 12%. And the hypervisor takes whole
  // vCPUs at times (steal time), which stretches wall time but not CPU
  // time. So every time is measured between two calibrations, the
  // share of the machine's CPU time stolen meanwhile is taken out of
  // its wall time, and the result is reported at the reference
  // machine's speed: x CalibrationRefMs / (mean of the two
  // calibrations' medians). stderr shows the raw numbers.
  auto Calibrate = [] {
    std::vector<double> V;
    for (int I = 0; I < 5; ++I)
      V.push_back(calibrationMs());
    return median(V);
  };
  auto Factor = [](double CalBefore, double CalAfter) {
    return CalibrationRefMs / ((CalBefore + CalAfter) / 2);
  };

  // The share of the busy CPUs' time stolen since \p StolenBefore, over
  // \p WallMs of wall time (the hypervisor steals from running vCPUs
  // only, and the workload keeps workers() of them running).
  double Cpus = static_cast<double>(std::min(nproc(), W->workers()));
  auto StolenShare = [Cpus](double StolenBefore, double WallMs) {
    double Share = (stolenMs() - StolenBefore) / (Cpus * WallMs);
    return std::clamp(Share, 0.0, 0.9);
  };

  // Set-up, timed several times; the last instance is kept.
  double CalPrev = Calibrate();
  double Stolen0 = stolenMs();
  uint64_t SetupStart = nowNs();
  std::vector<double> SetupS;
  for (int R = 0; R < SetupReps; ++R) {
    if (R)
      W->tearDown();
    uint64_t Start = nowNs();
    W->setUp();
    SetupS.push_back(msSince(Start) / 1e3);
  }
  double SetupShare = StolenShare(Stolen0, msSince(SetupStart));
  double CalNext = Calibrate();
  double SetupFactor = Factor(CalPrev, CalNext) * (1 - SetupShare);

  W->prepareReferences();
  // Warm-up: caches fill and lazy set-up finishes before timing.
  W->runJob(0, false);

  // The timed loop, in one-second segments with a calibration between
  // any two.
  if (C.Trace)
    tracer().enable(true);
  obs::Snapshot Obs0 = obs::snapshot();
  std::vector<Sample> Samples;
  std::vector<double> JobFactor;
  double WallMs = 0, CpuMs = 0, NormWallMs = 0, NormCpuMs = 0,
         StolenWallMs = 0;
  CalPrev = Calibrate();
  uint64_t End = nowNs() + static_cast<uint64_t>(C.Seconds * 1e9);
  do {
    double Left = static_cast<double>(End - std::min(End, nowNs())) / 1e9;
    double Cpu0 = processCpuMs(), Stolen = stolenMs();
    uint64_t Start = nowNs();
    std::vector<Sample> Seg = W->loop(std::min(1.0, Left), C.Trace);
    double SegWall = msSince(Start), SegCpu = processCpuMs() - Cpu0;
    double Share = StolenShare(Stolen, SegWall);
    CalNext = Calibrate();
    double F = Factor(CalPrev, CalNext);
    CalPrev = CalNext;
    WallMs += SegWall;
    CpuMs += SegCpu;
    StolenWallMs += SegWall * Share;
    NormWallMs += SegWall * (1 - Share) * F;
    NormCpuMs += SegCpu * F;
    for (const Sample &S : Seg) {
      Samples.push_back(S);
      JobFactor.push_back(F * (1 - Share));
    }
  } while (nowNs() < End);
  W->finish();
  double PeakRss = peakRssMb();
  obs::Snapshot ObsLoop = obs::snapshot().deltaFrom(Obs0);

  uint64_t Runs = 0;
  std::vector<double> Untraced, Traced, Norm;
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    Runs += S.Runs;
    (S.Traced ? Traced : Untraced).push_back(S.Ms);
    if (!S.Traced)
      Norm.push_back(S.Ms * JobFactor[I]);
  }
  double RunsD = static_cast<double>(std::max<uint64_t>(1, Runs));
  Metrics M;
  if (!C.Trace) {
    double TailQ = W->tailQuantile();
    M.set("setup_s", median(SetupS) * SetupFactor, "s");
    M.set("runs_per_s", RunsD / (NormWallMs / 1e3), "1/s");
    M.set("job_ms_p50", median(Norm), "ms");
    M.set("job_ms_tail", quantile(Norm, TailQ), "ms");
    M.set("cpu_ms_per_run", NormCpuMs / RunsD, "ms");
    M.set("peak_rss_mb", PeakRss, "MiB");
    std::fprintf(stderr,
                 "raw (wall clock): setup_s %.6g runs_per_s %.6g job_ms_p50 "
                 "%.6g job_ms_tail %.6g cpu_ms_per_run %.6g; stolen share "
                 "%.4f, speed factor %.4f (calibration reference %.1f ms)\n",
                 median(SetupS), RunsD / (WallMs / 1e3), median(Untraced),
                 quantile(Untraced, TailQ), CpuMs / RunsD,
                 StolenWallMs / WallMs, NormCpuMs / CpuMs, CalibrationRefMs);
    size_t Above = static_cast<size_t>(
        static_cast<double>(Untraced.size()) * (1 - TailQ));
    std::fprintf(stderr,
                 "%s: %zu jobs, %llu runs in %.0f ms; job_ms_tail is p%g "
                 "(%zu samples, %zu above it)%s\n",
                 C.Workload.c_str(), Untraced.size(),
                 static_cast<unsigned long long>(Runs), WallMs, TailQ * 100,
                 Untraced.size(), Above,
                 Above < 10 ? "; warning: fewer than ten samples above the "
                              "tail percentile"
                            : "");
  } else {
    double PU = median(Untraced), PT = median(Traced);
    M.set("trace.job_ms_p50_untraced", PU, "ms");
    M.set("trace.job_ms_p50_traced", PT, "ms");
    M.set("trace.overhead_x", PT / PU, "x");
    M.set("parallel.cpu_util",
          CpuMs / (WallMs * static_cast<double>(W->workers())), "ratio");
    double Jobs = static_cast<double>(Samples.size());
    double Stolen =
        static_cast<double>(counter(ObsLoop, obs::Counter::JobsStolen));
    double Executed =
        static_cast<double>(counter(ObsLoop, obs::Counter::JobsExecuted));
    M.set("parallel.jobs_stolen", Stolen / Jobs, "count");
    M.set("parallel.steal_frac", Executed > 0 ? Stolen / Executed : 0, "ratio");
    double Hits =
        static_cast<double>(counter(ObsLoop, obs::Counter::CorpusCompileHits));
    double Compiles =
        static_cast<double>(counter(ObsLoop, obs::Counter::CorpusCompiles));
    M.set("parallel.cache_hit_frac",
          Hits + Compiles > 0 ? Hits / (Hits + Compiles) : 0, "ratio");
    runLadder(*W, C, M);
    if (!C.TraceOut.empty()) {
      std::ofstream F(C.TraceOut);
      F << tracer().chromeJson();
      if (!F)
        W->Fails.fail("cannot write trace " + C.TraceOut);
      else
        std::fprintf(stderr, "wrote %zu spans to %s\n", tracer().size(),
                     C.TraceOut.c_str());
    }
  }

  bool Correct = W->Fails.Failed == 0;
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(W->Fails.Attempted);
  Out += ", \"failed\": " + std::to_string(W->Fails.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Mt] : M.all()) {
    Out += First ? "" : ", ";
    First = false;
    Out += jsonString(Name) + ": {\"value\": " + jsonNumber(Mt.Value) +
           ", \"unit\": " + jsonString(Mt.Unit) + "}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  // The workload's daemon (if any) and threads end before exit.
  W.reset();
  return Correct ? 0 : 1;
}
