//===- tools/algoprof_client.cpp - Typed algoprofd client CLI -------------===//
///
/// \file
/// Submits one profiling job to a running algoprofd and streams the
/// reply (service/Client.h):
///
///   algoprof_client --connect unix:PATH | tcp:HOST:PORT [options]
///     --connect EP           unix:/path/to.sock (default transport) or
///                            tcp:host:port (needs the daemon's token)
///     --auth-token-file F    token file for TCP endpoints
///     --corpus NAME          run a built-in corpus program, or
///     --file PROG.mj         submit inline MiniJ source, or
///     --resume ID            re-stream a journaled session's results
///                            (an integer >= 1)
///     --from-delta K         resume cursor: skip the first K deltas
///                            the client already saw (with --resume;
///                            an integer >= 0)
///     --connect-retries N    transport retries: reconnect with
///                            backoff and auto-resume at the delta
///                            cursor after a dropped connection
///                            (an integer in [0, 4294967295], default 0)
///     --timeout-ms N         per-operation socket deadline; a
///                            stalled daemon becomes a transport
///                            fault instead of a hang (an integer >= 0,
///                            default 0 = none)
///     --out FILE             write the profile JSON here (default stdout)
///     --quiet                suppress per-run delta lines on stderr
///
/// The job flags are the table of core/JobOptions.h, shared with
/// `algoprof` and the job payload (docs/service.md), and parse the same
/// way everywhere; the usage text prints them from that table:
///     --entry Class.method   Class.method, class and method non-empty
///                            (default Main.main)
///     --seeds v1,v2,...      one run per seed (wins over --runs)
///     --runs N               an integer in [1, 1000000000] (default 1)
///     --input v1,v2,...      input channel for unseeded runs
///     --policy P             fail | skip | retry (default fail)
///     --retries N            run-level retries under --policy retry,
///                            inside the daemon's VM (distinct from
///                            --connect-retries): an integer in
///                            [0, 1000] (default 2)
///     --max-heap-bytes N     per-run heap budget: an integer >= 0
///                            (default 0 = off)
///     --deadline-ms N        per-run deadline: an integer >= 0
///                            (default 0 = off)
///     --inject SPEC          session-scoped fault plan
///
/// Exit status: 0 on a completed profile, 1 on rejection or transport
/// failure, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

using namespace algoprof;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --connect unix:PATH|tcp:HOST:PORT\n"
               "       (--corpus NAME | --file PROG.mj | --resume ID)\n"
               "       [--from-delta K] [--auth-token-file F]\n"
               "       [--connect-retries N] [--timeout-ms N]\n"
               "       [--out FILE] [--quiet] [job options]\n"
               "job options (as in algoprof and the algoprofd job "
               "payload):\n%s",
               Argv0, prof::jobFlagsUsage().c_str());
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::string firstLineTrimmed(const std::string &Data) {
  size_t Nl = Data.find('\n');
  std::string T = Nl == std::string::npos ? Data : Data.substr(0, Nl);
  while (!T.empty() &&
         (T.back() == '\r' || T.back() == ' ' || T.back() == '\t'))
    T.pop_back();
  return T;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Connect, TokenFile, SourceFile, OutPath, Err;
  service::JobRequest Job;
  service::RetryPolicy Retry;
  bool Quiet = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *Val = I + 1 < Argc ? Argv[I + 1] : nullptr;
    auto IntFlag = [&](int64_t Min, int64_t Max, auto &Out) {
      ++I;
      return prof::parseIntFlag(Arg.c_str(), Val, Min, Max, Out, Err);
    };
    bool Ok = true;
    if (const prof::JobKey *K = prof::findJobFlag(Arg)) {
      Ok = prof::parseJobValue(*K, K->Flag, Val, Job, Err);
      ++I;
    } else if (Arg == "--resume") {
      Ok = IntFlag(1, prof::MaxInt64, Job.Resume);
    } else if (Arg == "--from-delta") {
      Ok = IntFlag(0, prof::MaxInt64, Job.FromDelta);
    } else if (Arg == "--connect-retries") {
      Ok = IntFlag(0, std::numeric_limits<unsigned>::max(),
                   Retry.ConnectRetries);
    } else if (Arg == "--timeout-ms") {
      Ok = IntFlag(0, prof::MaxInt64, Retry.TimeoutMs);
    } else if (Arg == "--connect" && Val) {
      Connect = Val;
      ++I;
    } else if (Arg == "--auth-token-file" && Val) {
      TokenFile = Val;
      ++I;
    } else if (Arg == "--corpus" && Val) {
      Job.Corpus = Val;
      ++I;
    } else if (Arg == "--file" && Val) {
      SourceFile = Val;
      ++I;
    } else if (Arg == "--out" && Val) {
      OutPath = Val;
      ++I;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown or incomplete argument '%s'\n",
                   Arg.c_str());
      return usage(Argv[0]);
    }
    if (!Ok) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }

  if (Connect.empty()) {
    std::fprintf(stderr, "error: --connect is required\n");
    return usage(Argv[0]);
  }
  int Goals = (!Job.Corpus.empty() ? 1 : 0) + (!SourceFile.empty() ? 1 : 0) +
              (Job.Resume != 0 ? 1 : 0);
  if (Goals != 1) {
    std::fprintf(stderr,
                 "error: exactly one of --corpus, --file, --resume\n");
    return usage(Argv[0]);
  }
  if (!SourceFile.empty() && !readFile(SourceFile, Job.Source)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", SourceFile.c_str());
    return 1;
  }
  if (Job.FromDelta != 0 && Job.Resume == 0) {
    std::fprintf(stderr, "error: --from-delta requires --resume\n");
    return 2;
  }

  std::string Token;
  if (!TokenFile.empty()) {
    std::string Data;
    if (!readFile(TokenFile, Data)) {
      std::fprintf(stderr, "error: cannot read '%s'\n", TokenFile.c_str());
      return 1;
    }
    Token = firstLineTrimmed(Data);
  }

  service::Client C = [&]() -> service::Client {
    if (Connect.rfind("unix:", 0) == 0)
      return service::Client::unixSocket(Connect.substr(5));
    if (Connect.rfind("tcp:", 0) == 0) {
      std::string HostPort = Connect.substr(4);
      size_t Colon = HostPort.rfind(':');
      uint16_t Port = 0;
      if (Colon != std::string::npos) {
        long V = std::strtol(HostPort.c_str() + Colon + 1, nullptr, 10);
        if (V > 0 && V <= 65535)
          Port = static_cast<uint16_t>(V);
      }
      return service::Client::tcp(HostPort.substr(0, Colon), Port, Token);
    }
    return service::Client::unixSocket(Connect); // Bare path: unix.
  }();

  std::function<void(const service::RunDeltaMsg &)> OnDelta;
  if (!Quiet)
    OnDelta = [](const service::RunDeltaMsg &D) {
      std::fprintf(stderr, "run %lld %s%s merged=%lld repetitions=%lld(+%lld)",
                   static_cast<long long>(D.Run), D.Status.c_str(),
                   D.Quarantined ? " (quarantined)" : "",
                   static_cast<long long>(D.MergedRuns),
                   static_cast<long long>(D.TreeRepetitions),
                   static_cast<long long>(D.NewRepetitions));
      for (const service::FitEstimate &F : D.Fits)
        std::fprintf(stderr, " [%s ~ %s]", F.Label.c_str(),
                     F.Formula.c_str());
      std::fprintf(stderr, "\n");
    };
  service::TypedResult R = C.run(Job, Retry, OnDelta);
  if (!Quiet && R.TransportRetries > 0)
    std::fprintf(stderr, "reconnected %u time%s to finish the stream\n",
                 R.TransportRetries, R.TransportRetries == 1 ? "" : "s");

  if (!R.Ok) {
    if (R.Error.any())
      std::fprintf(stderr, "error: %s%s: %s\n",
                   R.Error.Transport ? "transport: " : "",
                   R.Error.Code.c_str(), R.Error.Message.c_str());
    else
      std::fprintf(stderr, "error: incomplete stream\n");
    return 1;
  }

  if (!Quiet)
    std::fprintf(stderr,
                 "session %llu%s: %llu runs, %llu merged, %llu degraded\n",
                 static_cast<unsigned long long>(R.Acceptance.Session),
                 R.Acceptance.Resumed ? " (resumed)" : "",
                 static_cast<unsigned long long>(R.Summary.Runs),
                 static_cast<unsigned long long>(R.Summary.MergedRuns),
                 static_cast<unsigned long long>(R.Summary.DegradedRuns));

  if (OutPath.empty()) {
    std::fwrite(R.ProfileJson.data(), 1, R.ProfileJson.size(), stdout);
  } else {
    std::ofstream Out(OutPath, std::ios::binary);
    if (!Out || !(Out << R.ProfileJson) || (Out.flush(), !Out)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
      return 1;
    }
  }
  return 0;
}
