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
///     --from-delta K         resume cursor: skip the first K deltas
///                            the client already saw (with --resume)
///     --entry Cls.Method     entry point (default Main.main)
///     --seeds a,b,c          one run per seed (wins over --runs)
///     --runs N               unseeded run count (default 1)
///     --input a,b,c          input channel for unseeded runs
///     --policy P             fail | skip | retry
///     --retries N            retries per run under retry policy
///                            (run-level, inside the daemon's VM —
///                            distinct from --connect-retries)
///     --connect-retries N    transport retries: reconnect with
///                            backoff and auto-resume at the delta
///                            cursor after a dropped connection
///                            (default 0)
///     --timeout-ms N         per-operation socket deadline; a
///                            stalled daemon becomes a transport
///                            fault instead of a hang (default none)
///     --max-heap-bytes N     per-run heap budget
///     --deadline-ms N        per-run deadline
///     --inject SPEC          session-scoped fault plan
///     --out FILE             write the profile JSON here (default stdout)
///     --quiet                suppress per-run delta lines on stderr
///
/// Exit status: 0 on a completed profile, 1 on rejection or transport
/// failure, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace algoprof;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --connect unix:PATH|tcp:HOST:PORT\n"
      "       (--corpus NAME | --file PROG.mj | --resume ID)\n"
      "       [--from-delta K] [--auth-token-file F]\n"
      "       [--entry Cls.Method]\n"
      "       [--seeds a,b,c] [--runs N] [--input a,b,c]\n"
      "       [--policy fail|skip|retry] [--retries N]\n"
      "       [--connect-retries N] [--timeout-ms N]\n"
      "       [--max-heap-bytes N] [--deadline-ms N] [--inject SPEC]\n"
      "       [--out FILE] [--quiet]\n",
      Argv0);
  return 2;
}

bool parseU64Arg(const char *Flag, const char *Val, uint64_t &Out) {
  if (!Val)
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Val, &End, 10);
  if (End == Val || *End != '\0' || errno == ERANGE || V < 0) {
    std::fprintf(stderr,
                 "error: %s needs a non-negative integer, got '%s'\n",
                 Flag, Val ? Val : "");
    return false;
  }
  Out = static_cast<uint64_t>(V);
  return true;
}

bool parseIntListArg(const char *Flag, const char *Val,
                     std::vector<int64_t> &Out) {
  if (!Val)
    return false;
  Out.clear();
  std::string S = Val;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    std::string Item = S.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(Item.c_str(), &End, 10);
    if (Item.empty() || End == Item.c_str() || *End != '\0' ||
        errno == ERANGE) {
      std::fprintf(stderr, "error: %s has an invalid entry '%s'\n", Flag,
                   Item.c_str());
      return false;
    }
    Out.push_back(V);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
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
  std::string Connect, TokenFile, SourceFile, EntrySpec, OutPath;
  service::JobSpec Job;
  service::RetryPolicy Retry;
  bool Quiet = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *Val = I + 1 < Argc ? Argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (Arg == "--connect" && Val) {
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
    } else if (Arg == "--resume") {
      if (!parseU64Arg("--resume", Val, Job.Resume) || Job.Resume == 0) {
        std::fprintf(stderr, "error: --resume needs a session id\n");
        return 2;
      }
      ++I;
    } else if (Arg == "--from-delta") {
      if (!parseU64Arg("--from-delta", Val, Job.FromDelta))
        return 2;
      ++I;
    } else if (Arg == "--connect-retries") {
      if (!parseU64Arg("--connect-retries", Val, N))
        return 2;
      Retry.ConnectRetries = static_cast<unsigned>(N);
      ++I;
    } else if (Arg == "--timeout-ms") {
      if (!parseU64Arg("--timeout-ms", Val, Retry.TimeoutMs))
        return 2;
      ++I;
    } else if (Arg == "--entry" && Val) {
      EntrySpec = Val;
      ++I;
    } else if (Arg == "--seeds") {
      if (!parseIntListArg("--seeds", Val, Job.Seeds))
        return 2;
      ++I;
    } else if (Arg == "--runs") {
      if (!parseU64Arg("--runs", Val, N) || N < 1) {
        std::fprintf(stderr, "error: --runs needs a positive integer\n");
        return 2;
      }
      Job.Runs = static_cast<int>(N);
      ++I;
    } else if (Arg == "--input") {
      if (!parseIntListArg("--input", Val, Job.Input))
        return 2;
      ++I;
    } else if (Arg == "--policy" && Val) {
      if (!resilience::parseFailurePolicy(Val, Job.Policy)) {
        std::fprintf(stderr, "error: unknown policy '%s'\n", Val);
        return 2;
      }
      ++I;
    } else if (Arg == "--retries") {
      if (!parseU64Arg("--retries", Val, N))
        return 2;
      Job.MaxAttempts = static_cast<int>(N) + 1;
      ++I;
    } else if (Arg == "--max-heap-bytes") {
      if (!parseU64Arg("--max-heap-bytes", Val, Job.MaxHeapBytes))
        return 2;
      ++I;
    } else if (Arg == "--deadline-ms") {
      if (!parseU64Arg("--deadline-ms", Val, Job.RunDeadlineMs))
        return 2;
      ++I;
    } else if (Arg == "--inject" && Val) {
      Job.InjectSpec = Val;
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
  if (!EntrySpec.empty()) {
    size_t Dot = EntrySpec.find('.');
    if (Dot == std::string::npos || Dot == 0 ||
        Dot + 1 == EntrySpec.size()) {
      std::fprintf(stderr, "error: --entry wants Cls.Method\n");
      return 2;
    }
    Job.EntryClass = EntrySpec.substr(0, Dot);
    Job.EntryMethod = EntrySpec.substr(Dot + 1);
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
