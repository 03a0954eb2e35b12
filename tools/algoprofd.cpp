//===- tools/algoprofd.cpp - The algoprof profiling daemon ----------------===//
///
/// \file
/// Runs the streaming profiling-as-a-service daemon (service/Daemon.h):
///
///   algoprofd --socket PATH [options]
///     --socket PATH          Unix-domain socket to listen on (required)
///     --listen HOST:PORT     additionally listen on TCP (IPv4); requires
///                            --auth-token-file (port 0 = ephemeral,
///                            printed at startup)
///     --auth-token-file F    file whose first line is the shared token
///                            every TCP job must present (auth=...)
///     --journal PATH         write-ahead log for the durable job queue:
///                            accepted jobs survive a daemon restart and
///                            are replayed; clients resume= into their
///                            byte-identical results
///     --send-buffer-bytes N  per-session pending cap for streamed
///                            RunDelta frames (default 1 MiB)
///     --slow-client POLICY   drop-deltas (default) or disconnect: what
///                            happens when a client overflows its buffer
///     --jobs N               worker threads of the shared run pool
///                            (0 = hardware concurrency, default)
///     --max-sessions N       concurrent sessions admitted; further
///                            connections get a too-many-sessions error
///                            (0 = unlimited, default)
///     --metrics-port P       serve GET /metrics on --metrics-addr:P
///                            (0 = pick an ephemeral port and print it;
///                            omit the flag to disable the endpoint)
///     --metrics-addr A       /metrics bind address (default 127.0.0.1;
///                            non-loopback requires --auth-token-file)
///     --max-frame-bytes N    largest job payload accepted (default 1 MiB)
///     --read-timeout-ms N    job-frame receive timeout (default 5000)
///     --quota-runs N         per-session run-count cap (0 = none)
///     --quota-source-bytes N per-session source-size cap (0 = none)
///     --quota-heap-bytes N   per-run heap budget ceiling; unlimited
///                            requests are clamped down to it (0 = none)
///     --quota-deadline-ms N  per-run deadline ceiling, same rule
///     --quota-attempts N     per-run retry-execution cap (0 = none)
///     --compact-bytes N      rotate the journal once it exceeds N
///                            bytes, dropping completed records
///                            (0 = no size-triggered compaction)
///     --compact-interval N   additionally compact every N ms
///                            (0 = off)
///     --retain-bytes N       cap on retained resumable results; the
///                            oldest completed sessions are evicted
///                            first (0 = unbounded)
///     --retain-secs N        evict a session's retained results N
///                            seconds after completion (0 = never)
///     --drain-timeout-ms N   SIGTERM grace period for in-flight
///                            sessions (default 5000)
///
/// SIGTERM drains gracefully: the listeners close, in-flight sessions
/// finish and journal their results, buffered frames flush, and the
/// daemon exits 0 — within --drain-timeout-ms, after which whatever
/// is still running is cut off. SIGINT skips the grace period and
/// stops immediately. Protocol and examples: docs/service.md.
///
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <unistd.h>

using namespace algoprof;

namespace {

/// Written by the signal handler, drained by main. A self-pipe instead
/// of a flag-poll loop: the handler's write is async-signal-safe and
/// wakes the blocked read immediately.
int ShutdownPipe[2] = {-1, -1};

void onSignal(int Signo) {
  // The byte says which signal arrived: SIGTERM drains gracefully,
  // SIGINT stops immediately. The return value is deliberately
  // unused: if the pipe is full the shutdown is already pending.
  char B = static_cast<char>(Signo);
  ssize_t W = ::write(ShutdownPipe[1], &B, 1);
  (void)W;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--listen HOST:PORT]\n"
               "       [--auth-token-file F] [--journal PATH]\n"
               "       [--send-buffer-bytes N]\n"
               "       [--slow-client drop-deltas|disconnect]\n"
               "       [--jobs N] [--max-sessions N]\n"
               "       [--metrics-port P] [--metrics-addr A]\n"
               "       [--max-frame-bytes N]\n"
               "       [--read-timeout-ms N] [--quota-runs N]\n"
               "       [--quota-source-bytes N] [--quota-heap-bytes N]\n"
               "       [--quota-deadline-ms N] [--quota-attempts N]\n"
               "       [--compact-bytes N] [--compact-interval MS]\n"
               "       [--retain-bytes N] [--retain-secs N]\n"
               "       [--drain-timeout-ms N]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  service::DaemonOptions Opts;
  uint64_t DrainTimeoutMs = 5000;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], Err;
    const char *Val = I + 1 < Argc ? Argv[I + 1] : nullptr;
    auto IntFlag = [&](auto &Out, int64_t Max = prof::MaxInt64) {
      ++I;
      if (prof::parseIntFlag(Arg.c_str(), Val, 0, Max, Out, Err))
        return true;
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return false;
    };
    bool Ok = true;
    if (Arg == "--socket" && Val) {
      Opts.SocketPath = Val;
      ++I;
    } else if (Arg == "--listen" && Val) {
      Opts.ListenAddress = Val;
      ++I;
    } else if (Arg == "--auth-token-file" && Val) {
      Opts.AuthTokenFile = Val;
      ++I;
    } else if (Arg == "--journal" && Val) {
      Opts.JournalPath = Val;
      ++I;
    } else if (Arg == "--send-buffer-bytes") {
      Ok = IntFlag(Opts.MaxSendBufferBytes);
    } else if (Arg == "--slow-client" && Val) {
      std::string P = Val;
      if (P == "drop-deltas") {
        Opts.SlowClient = service::SendBuffer::Policy::DropDeltas;
      } else if (P == "disconnect") {
        Opts.SlowClient = service::SendBuffer::Policy::Disconnect;
      } else {
        std::fprintf(stderr,
                     "error: --slow-client wants drop-deltas or "
                     "disconnect, got '%s'\n",
                     Val);
        return 2;
      }
      ++I;
    } else if (Arg == "--metrics-addr" && Val) {
      Opts.MetricsAddress = Val;
      ++I;
    } else if (Arg == "--jobs") {
      Ok = IntFlag(Opts.Workers, std::numeric_limits<unsigned>::max());
    } else if (Arg == "--max-sessions") {
      Ok = IntFlag(Opts.MaxSessions);
    } else if (Arg == "--metrics-port") {
      Ok = IntFlag(Opts.MetricsPort, 65535);
    } else if (Arg == "--max-frame-bytes") {
      Ok = IntFlag(Opts.MaxFrameBytes);
    } else if (Arg == "--read-timeout-ms") {
      Ok = IntFlag(Opts.ReadTimeoutMs, std::numeric_limits<unsigned>::max());
    } else if (Arg == "--quota-runs") {
      Ok = IntFlag(Opts.Quota.MaxRuns);
    } else if (Arg == "--quota-source-bytes") {
      Ok = IntFlag(Opts.Quota.MaxSourceBytes);
    } else if (Arg == "--quota-heap-bytes") {
      Ok = IntFlag(Opts.Quota.MaxHeapBytes);
    } else if (Arg == "--quota-deadline-ms") {
      Ok = IntFlag(Opts.Quota.MaxRunDeadlineMs);
    } else if (Arg == "--quota-attempts") {
      Ok = IntFlag(Opts.Quota.MaxAttempts);
    } else if (Arg == "--compact-bytes") {
      Ok = IntFlag(Opts.CompactBytes);
    } else if (Arg == "--compact-interval") {
      Ok = IntFlag(Opts.CompactIntervalMs);
    } else if (Arg == "--retain-bytes") {
      Ok = IntFlag(Opts.RetainBytes);
    } else if (Arg == "--retain-secs") {
      Ok = IntFlag(Opts.RetainSecs);
    } else if (Arg == "--drain-timeout-ms") {
      Ok = IntFlag(DrainTimeoutMs);
    } else {
      std::fprintf(stderr, "error: unknown or incomplete argument '%s'\n",
                   Arg.c_str());
      return usage(Argv[0]);
    }
    if (!Ok)
      return 2;
  }
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "error: --socket is required\n");
    return usage(Argv[0]);
  }

  if (::pipe(ShutdownPipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
  // A client that disconnects mid-stream must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  service::Daemon D(Opts);
  std::string Err;
  if (!D.start(Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("algoprofd listening on %s", Opts.SocketPath.c_str());
  if (!Opts.ListenAddress.empty())
    std::printf(" (tcp on port %d)", D.listenPort());
  if (Opts.MetricsPort >= 0)
    std::printf(" (metrics on %s:%d)", Opts.MetricsAddress.c_str(),
                D.metricsPort());
  std::printf("\n");
  std::fflush(stdout);

  char B = 0;
  while (::read(ShutdownPipe[0], &B, 1) < 0 && errno == EINTR) {
  }
  if (B == SIGTERM) {
    std::printf("algoprofd draining (up to %llu ms)\n",
                static_cast<unsigned long long>(DrainTimeoutMs));
    std::fflush(stdout);
    if (D.drain(DrainTimeoutMs))
      std::printf("algoprofd drained cleanly\n");
    else
      std::printf("algoprofd drain timed out; cutting off stragglers\n");
  } else {
    std::printf("algoprofd shutting down\n");
  }
  D.stop();
  service::Daemon::Stats S = D.stats();
  std::printf("sessions: %llu accepted, %llu rejected, %llu completed; "
              "%llu bytes streamed\n",
              static_cast<unsigned long long>(S.Accepted),
              static_cast<unsigned long long>(S.Rejected),
              static_cast<unsigned long long>(S.Completed),
              static_cast<unsigned long long>(S.BytesStreamed));
  std::printf("deltas: %llu streamed, %llu dropped; %llu jobs replayed; "
              "%llu auth failures\n",
              static_cast<unsigned long long>(S.DeltasStreamed),
              static_cast<unsigned long long>(S.DeltasDropped),
              static_cast<unsigned long long>(S.JobsReplayed),
              static_cast<unsigned long long>(S.AuthFailures));
  std::printf("retention: %llu results evicted, %llu compactions, "
              "%llu health checks\n",
              static_cast<unsigned long long>(S.ResultsEvicted),
              static_cast<unsigned long long>(S.Compactions),
              static_cast<unsigned long long>(S.HealthChecks));
  return 0;
}
