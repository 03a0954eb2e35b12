//===- tests/ServiceTestUtil.h - Helpers for daemon tests -------*- C++-*-===//
///
/// \file
/// Shared machinery for the daemon tests (ServiceTest.cpp, ChaosTest.cpp):
/// unique socket and scratch paths, an in-process daemon fixture, the
/// serial reference profile every streamed profile must equal byte for
/// byte, one-shot typed jobs, bounded polling, and a one-shot HTTP GET
/// for the metrics port.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_TESTS_SERVICETESTUTIL_H
#define ALGOPROF_TESTS_SERVICETESTUTIL_H

#include "core/Session.h"
#include "programs/Programs.h"
#include "report/Reporter.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "support/Diagnostics.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace algoprof {
namespace testutil {

/// A unique scratch file (journal, token) per call, removed by callers.
/// /tmp keeps socket paths under the sun_path limit regardless of how
/// deep the build tree sits.
inline std::string testScratchPath(const char *Tag) {
  static std::atomic<int> Counter{0};
  return std::string("/tmp/algoprofd-test-") + Tag + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1));
}

inline std::string testSocketPath() { return testScratchPath("sock"); }

inline const std::string &corpusSource(const std::string &Name) {
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    if (P.Name == Name)
      return P.Source;
  ADD_FAILURE() << "no corpus program " << Name;
  static std::string Empty;
  return Empty;
}

/// The serial reference: exactly what the CLI renders for the same
/// program + options with --format json (ProfileDriver is the CLI's
/// one-true-path; the daemon's streamed profile must match its bytes).
inline std::string serialReferenceJson(const std::string &Source,
                                       prof::SessionOptions SO) {
  DiagnosticEngine Diags;
  std::unique_ptr<prof::CompiledProgram> CP =
      prof::compileMiniJ(Source, Diags);
  EXPECT_TRUE(CP) << Diags.str();
  SO.Jobs = 1;
  prof::ProfileDriver Driver(*CP, SO);
  Driver.runAll("Main", "main");
  std::vector<prof::AlgorithmProfile> Profiles = Driver.buildProfiles();
  report::ReportInput RI{&Driver.tree(), &Driver.inputs(), &Profiles,
                         &Driver.failures()};
  return report::Registry::builtin().find("json")->render(RI);
}

/// One HTTP GET against the daemon's metrics port; returns the whole
/// response (headers + body), empty on connect failure.
inline std::string httpGet(int Port, const std::string &Path) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return "";
  }
  std::string Req = "GET " + Path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)!::send(Fd, Req.data(), Req.size(), MSG_NOSIGNAL);
  std::string Resp;
  char Buf[4096];
  ssize_t R;
  while ((R = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Resp.append(Buf, static_cast<size_t>(R));
  ::close(Fd);
  return Resp;
}

/// One job over the typed API against a Unix-socket daemon.
inline service::TypedResult runTyped(const std::string &SocketPath,
                                     const service::JobRequest &Job) {
  return service::Client::unixSocket(SocketPath).submit(Job).wait();
}

/// Polls \p Pred (a daemon-stats condition) with a bounded wait.
inline bool pollFor(const std::function<bool()> &Pred,
                    int TimeoutMs = 20000) {
  for (int Waited = 0; Waited < TimeoutMs; Waited += 10) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

/// An in-process daemon on a fresh socket with a two-worker pool unless
/// the options say otherwise.
struct DaemonFixture {
  service::DaemonOptions Opts;
  std::unique_ptr<service::Daemon> D;

  explicit DaemonFixture(
      service::DaemonOptions O = service::DaemonOptions()) {
    Opts = std::move(O);
    if (Opts.SocketPath.empty())
      Opts.SocketPath = testSocketPath();
    if (Opts.Workers == 0)
      Opts.Workers = 2;
    D = std::make_unique<service::Daemon>(Opts);
    std::string Err;
    EXPECT_TRUE(D->start(Err)) << Err;
  }
};

} // namespace testutil
} // namespace algoprof

#endif // ALGOPROF_TESTS_SERVICETESTUTIL_H
