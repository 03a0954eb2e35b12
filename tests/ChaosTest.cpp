//===- tests/ChaosTest.cpp - Seeded fault schedules for the daemon --------===//
//
// The stage-3 self-healing guarantees under deterministic chaos: a
// byte-cutting proxy injects seeded connection resets, partial frame
// writes, and slow-client stalls between a retrying typed client and
// the daemon, across 50+ schedules — after every recovery the profile
// must be byte-identical to the serial CLI, every delta observed
// exactly once, and the journal bounded by compaction. Alongside the
// proxy schedules: journal fuzzing (bit flips, duplicate C records,
// oversized lengths), crash-state restarts with delta cursors,
// retained-result eviction (byte budget and TTL on an injected
// clock), graceful drain (alone and under load: concurrent sessions,
// journal compaction and metrics scrapes), and the /healthz + /readyz
// endpoints.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Journal.h"

#include "ServiceTestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace algoprof;
using namespace algoprof::service;
using namespace algoprof::testutil;

namespace {

/// Deterministic per-schedule randomness (xorshift64): the whole fault
/// schedule derives from one seed, so a failing schedule replays.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 0x9e3779b9) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  uint64_t range(uint64_t N) { return N ? next() % N : 0; }
};

bool writeAll(int Fd, const char *P, size_t N) {
  while (N > 0) {
    ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (W <= 0) {
      if (W < 0 && errno == EINTR)
        continue;
      return false;
    }
    P += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The chaos proxy
//===----------------------------------------------------------------------===//

/// One connection's fault schedule. Byte counts are measured at the
/// proxy, so cuts land at arbitrary offsets — including inside the
/// 5-byte frame header (a short write the reader must treat as a
/// truncated frame, not garbage).
struct ConnPlan {
  size_t CutDownAfter = SIZE_MAX; ///< daemon->client bytes, then reset.
  size_t CutUpAfter = SIZE_MAX;   ///< client->daemon bytes, then reset.
  unsigned StallMs = 0;           ///< One mid-stream delivery stall.
};

/// A Unix-socket proxy that forwards client<->daemon traffic and
/// executes one ConnPlan per accepted connection (in accept order);
/// connections beyond the plan list pass through untouched — so every
/// schedule eventually lets the client through and the test asserts on
/// the recovered result, not on luck.
class ChaosProxy {
public:
  ChaosProxy(std::string BackendPath, std::vector<ConnPlan> Plans)
      : Backend(std::move(BackendPath)), Plans(std::move(Plans)),
        Path(testSocketPath()) {}

  ~ChaosProxy() { stop(); }

  bool start() {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return false;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return false;
    ::unlink(Path.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) < 0 ||
        ::listen(ListenFd, 16) < 0) {
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
    Acceptor = std::thread([this] { acceptLoop(); });
    return true;
  }

  void stop() {
    // Wake the blocked accept with shutdown, but only close the fd
    // AFTER the acceptor joined: closing first would race the
    // acceptor's re-read of ListenFd (and a recycled fd number could
    // even be accept()ed on).
    if (ListenFd >= 0) {
      Stopping.store(true);
      ::shutdown(ListenFd, SHUT_RDWR);
    }
    if (Acceptor.joinable())
      Acceptor.join();
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    for (std::thread &T : Pumps)
      if (T.joinable())
        T.join();
    Pumps.clear();
    ::unlink(Path.c_str());
  }

  const std::string &path() const { return Path; }

private:
  void acceptLoop() {
    size_t ConnIdx = 0;
    for (;;) {
      int C = ::accept(ListenFd, nullptr, nullptr);
      if (C < 0) {
        if (errno == EINTR && !Stopping.load())
          continue;
        return; // Listener shut down: proxy is stopping.
      }
      if (Stopping.load()) {
        ::close(C);
        return;
      }
      ConnPlan Plan =
          ConnIdx < Plans.size() ? Plans[ConnIdx] : ConnPlan();
      ++ConnIdx;
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::memcpy(Addr.sun_path, Backend.c_str(), Backend.size() + 1);
      int B = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (B < 0 || ::connect(B, reinterpret_cast<sockaddr *>(&Addr),
                             sizeof(Addr)) < 0) {
        if (B >= 0)
          ::close(B);
        ::close(C);
        continue; // The client sees a reset: also a fault to survive.
      }
      Pumps.emplace_back([this, C, B, Plan] { pump(C, B, Plan); });
    }
  }

  /// Forwards both directions until a side closes or the plan cuts the
  /// connection. A cut closes BOTH sockets at once — exactly what a
  /// dropped TCP connection or a killed peer looks like.
  void pump(int C, int B, ConnPlan Plan) {
    size_t Down = 0, Up = 0;
    bool Stalled = false;
    char Buf[4096];
    for (;;) {
      pollfd Fds[2] = {{C, POLLIN, 0}, {B, POLLIN, 0}};
      int PR = ::poll(Fds, 2, 30000);
      if (PR <= 0)
        break;
      if (Fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
        ssize_t R = ::recv(C, Buf, sizeof(Buf), 0);
        if (R <= 0)
          break;
        size_t N = static_cast<size_t>(R);
        if (Up + N > Plan.CutUpAfter) {
          // Forward only part of the client's frame, then drop the
          // link: the daemon sees a short write / truncated job.
          size_t Keep = Plan.CutUpAfter - Up;
          if (Keep)
            writeAll(B, Buf, Keep);
          break;
        }
        Up += N;
        if (!writeAll(B, Buf, N))
          break;
      }
      if (Fds[1].revents & (POLLIN | POLLHUP | POLLERR)) {
        ssize_t R = ::recv(B, Buf, sizeof(Buf), 0);
        if (R <= 0)
          break;
        size_t N = static_cast<size_t>(R);
        if (!Stalled && Plan.StallMs != 0 && Down >= Plan.CutDownAfter / 2) {
          // A one-off slow-client stall mid-delivery.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(Plan.StallMs));
          Stalled = true;
        }
        if (Down + N > Plan.CutDownAfter) {
          size_t Keep = Plan.CutDownAfter - Down;
          if (Keep)
            writeAll(C, Buf, Keep); // Short write mid-frame, then cut.
          break;
        }
        Down += N;
        if (!writeAll(C, Buf, N))
          break;
      }
    }
    ::close(C);
    ::close(B);
  }

  std::string Backend;
  std::vector<ConnPlan> Plans;
  std::string Path;
  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;
  std::vector<std::thread> Pumps;
};

/// A retry policy tuned for tests: plenty of reconnects, real socket
/// deadlines, but no wall-clock backoff (the schedules are already
/// deterministic; sleeping would only slow the suite).
RetryPolicy testRetryPolicy(uint64_t Seed) {
  RetryPolicy P;
  P.ConnectRetries = 8;
  P.TimeoutMs = 20000;
  P.BackoffInitialMs = 1;
  P.BackoffMaxMs = 2;
  P.JitterSeed = Seed;
  P.SleepMs = [](uint64_t) {};
  return P;
}

/// Asserts the merged delta stream is exactly runs 0..N-1, once each,
/// in order — the no-delta-twice, no-delta-lost invariant.
void expectExactDeltaStream(const TypedResult &R, size_t N) {
  ASSERT_EQ(N, R.Deltas.size());
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(static_cast<int64_t>(I), R.Deltas[I].Run);
}

uint64_t fileSize(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return 0;
  std::fseek(F, 0, SEEK_END);
  long Sz = std::ftell(F);
  std::fclose(F);
  return Sz < 0 ? 0 : static_cast<uint64_t>(Sz);
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeded chaos schedules through the cutting proxy
//===----------------------------------------------------------------------===//

TEST(ChaosService, FiftySeededFaultSchedulesRecoverByteIdentical) {
  std::string JournalPath = testScratchPath("journal");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  O.CompactBytes = 2048; // Aggressive: every few sessions rotate the WAL.
  DaemonFixture F(std::move(O));

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8, 12, 16};
  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  const std::string Reference =
      serialReferenceJson(corpusSource(Job.Corpus), SO);

  constexpr int NumSchedules = 50;
  uint64_t TotalRetries = 0;
  for (int Schedule = 0; Schedule < NumSchedules; ++Schedule) {
    SCOPED_TRACE("schedule " + std::to_string(Schedule));
    Rng R(0xC4A05u * 2654435761u + static_cast<uint64_t>(Schedule));

    // 1-3 faulty connections, then clean pass-through. Cut offsets
    // cover the whole reply shape: inside the Accepted frame's header,
    // between deltas, inside the Profile frame. Upstream cuts land
    // inside the Job frame. A third of the schedules add a stall.
    std::vector<ConnPlan> Plans;
    size_t Faulty = 1 + R.range(3);
    for (size_t I = 0; I < Faulty; ++I) {
      ConnPlan P;
      if (R.range(4) == 0) {
        P.CutUpAfter = R.range(60); // The Job frame is ~100 bytes.
      } else {
        P.CutDownAfter = 1 + R.range(2000);
        if (R.range(3) == 0)
          P.StallMs = 10 + static_cast<unsigned>(R.range(40));
      }
      Plans.push_back(P);
    }

    ChaosProxy Proxy(F.Opts.SocketPath, std::move(Plans));
    ASSERT_TRUE(Proxy.start());

    size_t LiveDeltas = 0;
    TypedResult Result =
        Client::unixSocket(Proxy.path())
            .run(Job, testRetryPolicy(static_cast<uint64_t>(Schedule) + 1),
                 [&](const RunDeltaMsg &) { ++LiveDeltas; });
    ASSERT_TRUE(Result.Ok)
        << Result.Error.Code << ": " << Result.Error.Message
        << " after " << Result.TransportRetries << " retries";
    expectExactDeltaStream(Result, 4);
    EXPECT_EQ(4u, LiveDeltas); // The callback saw each delta once too.
    EXPECT_EQ(Reference, Result.ProfileJson);
    TotalRetries += Result.TransportRetries;

    Proxy.stop();
  }

  // The harness must have actually hurt: every schedule forces at
  // least one cut (upstream cuts land inside the ~100-byte Job frame,
  // downstream cuts inside a multi-KB reply), so recoveries — not
  // first-try luck — produced the byte-identical results above.
  EXPECT_GE(TotalRetries, static_cast<uint64_t>(NumSchedules));

  // Compaction kept the WAL bounded across ~50-150 sessions: at most
  // the threshold plus one session's churn, nowhere near the
  // uncompacted growth (every session appends its whole Job payload).
  EXPECT_GT(F.D->stats().Compactions, 0u);
  EXPECT_LT(fileSize(JournalPath), 4096u);
  std::remove(JournalPath.c_str());
}

//===----------------------------------------------------------------------===//
// Crash-state restarts with delta cursors
//===----------------------------------------------------------------------===//

TEST(ChaosService, SeededCrashRestartsResumeFromCursor) {
  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {3, 5, 7, 9};
  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  const std::string Reference =
      serialReferenceJson(corpusSource(Job.Corpus), SO);

  for (int Round = 0; Round < 8; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    Rng R(0xD15EA5Eu + static_cast<uint64_t>(Round) * 7919u);
    std::string JournalPath = testScratchPath("crash");

    // The crash state: a job accepted (A record, no C) by a daemon
    // that died at the journal checkpoint.
    uint64_t Id = 100 + static_cast<uint64_t>(Round);
    {
      Journal J;
      std::string Err;
      ASSERT_TRUE(J.open(JournalPath, Err)) << Err;
      ASSERT_TRUE(J.appendAccepted(Id, encodeJobRequest(Job)));
    }

    DaemonOptions O;
    O.JournalPath = JournalPath;
    DaemonFixture F(std::move(O));

    // Resume at a seeded cursor: the daemon owes exactly n-k deltas,
    // the tail of the stream, then the byte-identical document.
    uint64_t K = R.range(5); // 0..4 of 4 runs.
    JobSpec Rs;
    Rs.Resume = Id;
    Rs.FromDelta = K;
    TypedResult Res = runTyped(F.Opts.SocketPath, Rs);
    ASSERT_TRUE(Res.Ok) << Res.Error.Code << ": " << Res.Error.Message;
    EXPECT_TRUE(Res.Acceptance.Resumed);
    EXPECT_EQ(K, Res.Acceptance.ResumedFrom);
    EXPECT_EQ(4u, Res.Acceptance.Runs);
    ASSERT_EQ(4 - K, Res.Deltas.size());
    for (size_t I = 0; I < Res.Deltas.size(); ++I)
      EXPECT_EQ(static_cast<int64_t>(K + I), Res.Deltas[I].Run);
    EXPECT_EQ(Reference, Res.ProfileJson);

    std::remove(JournalPath.c_str());
  }
}

TEST(ChaosService, CursorPastTheRetainedCountIsRejected) {
  std::string JournalPath = testScratchPath("cursor");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  DaemonFixture F(std::move(O));

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8};
  TypedResult First = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(First.Ok) << First.Error.Code << ": " << First.Error.Message;

  JobSpec Rs;
  Rs.Resume = First.Acceptance.Session;
  Rs.FromDelta = 3; // Only 2 deltas retained.
  TypedResult R = runTyped(F.Opts.SocketPath, Rs);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(errc::BadRequest, R.Error.Code);

  // from-delta == retained count is valid: an empty tail, then the
  // document — the degenerate "I saw everything, give me the profile".
  Rs.FromDelta = 2;
  TypedResult Tail = runTyped(F.Opts.SocketPath, Rs);
  ASSERT_TRUE(Tail.Ok) << Tail.Error.Code << ": " << Tail.Error.Message;
  EXPECT_EQ(0u, Tail.Deltas.size());
  EXPECT_EQ(2u, Tail.Acceptance.ResumedFrom);
  EXPECT_EQ(First.ProfileJson, Tail.ProfileJson);
  std::remove(JournalPath.c_str());
}

//===----------------------------------------------------------------------===//
// Journal fuzz: corruption never crashes the loader
//===----------------------------------------------------------------------===//

TEST(ChaosJournal, FuzzedLogsNeverCrashAndSalvageTheValidPrefix) {
  std::string Base = "algoprof-journal/1\n";
  Base += "A 1 5\nhello\n";
  Base += "A 2 7\npayload\n";
  Base += "C 1\n";
  Base += "A 3 3\nabc\n";

  std::string Path = testScratchPath("fuzz");
  auto WriteAndLoad = [&](const std::string &Data, Journal::LoadResult &LR) {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(nullptr, F);
    std::fwrite(Data.data(), 1, Data.size(), F);
    std::fclose(F);
    std::string Err;
    Journal::load(Path, LR, Err); // Must return, never crash.
  };

  // The intact log: sessions 2 and 3 pending, 1 completed.
  {
    Journal::LoadResult LR;
    WriteAndLoad(Base, LR);
    ASSERT_EQ(2u, LR.Pending.size());
    EXPECT_EQ(2u, LR.Pending[0].Id);
    EXPECT_EQ(3u, LR.Pending[1].Id);
    EXPECT_EQ(3u, LR.MaxId);
  }

  // A duplicate C with no matching A is inert (compaction emits these
  // on purpose to preserve the id high-water mark).
  {
    Journal::LoadResult LR;
    WriteAndLoad(Base + "C 9\nC 9\n", LR);
    EXPECT_EQ(2u, LR.Pending.size());
    EXPECT_EQ(9u, LR.MaxId);
  }

  // An oversized length field cannot wrap the bounds check: the record
  // is dropped, everything before it salvaged.
  {
    Journal::LoadResult LR;
    WriteAndLoad(Base + "A 4 18446744073709551615\nx\n", LR);
    EXPECT_EQ(2u, LR.Pending.size());
    EXPECT_EQ(3u, LR.MaxId);
  }
  {
    Journal::LoadResult LR;
    WriteAndLoad(Base + "A 4 99999999999999999999999\nx\n", LR);
    EXPECT_EQ(2u, LR.Pending.size());
  }

  // 300 seeded single-bit flips, truncations, and garbage splices over
  // the whole log: load() must always return (never crash, never read
  // out of bounds — ASan/UBSan runs watch this), and whatever pending
  // jobs it salvages can only be the three that were ever written —
  // corruption may hide records but can never invent a session id the
  // log did not contain with an intact record.
  Rng R(0xF1A5Eu);
  for (int I = 0; I < 300; ++I) {
    std::string Mutated = Base;
    size_t FlipAt = Mutated.size();
    switch (R.range(3)) {
    case 0: // bit flip
      FlipAt = R.range(Mutated.size());
      Mutated[FlipAt] ^= static_cast<char>(1u << R.range(8));
      break;
    case 1: // truncate
      FlipAt = R.range(Mutated.size());
      Mutated.resize(FlipAt);
      break;
    default: // garbage splice
      FlipAt = R.range(Mutated.size());
      Mutated.insert(FlipAt, std::string(1 + R.range(9),
                                         static_cast<char>(R.range(256))));
      break;
    }
    Journal::LoadResult LR;
    WriteAndLoad(Mutated, LR);
    // Records before the first corrupted byte survive verbatim.
    if (FlipAt >= Base.size() - 8) {
      ASSERT_GE(LR.Pending.size(), 1u);
      EXPECT_EQ(2u, LR.Pending[0].Id);
      EXPECT_EQ("payload", LR.Pending[0].Payload);
    }
  }
  std::remove(Path.c_str());
}

TEST(ChaosJournal, IsOpenIsRaceFreeDuringCompaction) {
  // Session threads ask isOpen() without the journal lock while a
  // replay or maintenance thread compacts, which swaps the append fd.
  // Under ThreadSanitizer (tsan_parallel) an unsynchronized fd made
  // the daemon's SIGTERM drain exit 66 in service_restart.
  std::string Path = testScratchPath("isopen");
  Journal J;
  std::string Err;
  ASSERT_TRUE(J.open(Path, Err)) << Err;
  ASSERT_TRUE(J.appendAccepted(1, "pending"));
  std::atomic<bool> Done{false};
  std::thread Compactor([&] {
    std::string CErr;
    for (int I = 0; I < 50; ++I)
      EXPECT_TRUE(J.compact(CErr)) << CErr;
    Done.store(true);
  });
  while (!Done.load())
    EXPECT_TRUE(J.isOpen());
  Compactor.join();
  J.close();
  std::remove(Path.c_str());
}

TEST(ChaosJournal, CompactionKeepsPendingDropsCompletedPreservesMaxId) {
  std::string Path = testScratchPath("compact");
  Journal J;
  std::string Err;
  ASSERT_TRUE(J.open(Path, Err)) << Err;
  std::string Big(512, 'x');
  for (uint64_t Id = 1; Id <= 8; ++Id)
    ASSERT_TRUE(J.appendAccepted(Id, Big + std::to_string(Id)));
  for (uint64_t Id = 1; Id <= 7; ++Id)
    ASSERT_TRUE(J.appendCompleted(Id));
  uint64_t Before = J.sizeBytes();
  EXPECT_EQ(Before, fileSize(Path));

  ASSERT_TRUE(J.compact(Err)) << Err;
  EXPECT_LT(J.sizeBytes(), Before / 4);
  EXPECT_EQ(J.sizeBytes(), fileSize(Path));
  EXPECT_FALSE(J.failed());

  // Still a valid algoprof-journal/1 holding exactly the pending job —
  // and the id high-water mark survived the dropped records.
  Journal::LoadResult LR;
  ASSERT_TRUE(Journal::load(Path, LR, Err)) << Err;
  ASSERT_EQ(1u, LR.Pending.size());
  EXPECT_EQ(8u, LR.Pending[0].Id);
  EXPECT_EQ(Big + "8", LR.Pending[0].Payload);
  EXPECT_EQ(8u, LR.MaxId);

  // Appends keep working on the rotated fd; a second compaction of an
  // already-minimal log is a no-op in content.
  ASSERT_TRUE(J.appendCompleted(8));
  ASSERT_TRUE(J.appendAccepted(9, "tail"));
  ASSERT_TRUE(J.compact(Err)) << Err;
  ASSERT_TRUE(Journal::load(Path, LR, Err)) << Err;
  ASSERT_EQ(1u, LR.Pending.size());
  EXPECT_EQ(9u, LR.Pending[0].Id);
  EXPECT_EQ(9u, LR.MaxId);
  J.close();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Retained-result eviction
//===----------------------------------------------------------------------===//

TEST(ChaosEviction, ByteBudgetEvictsOldestCompletedFirst) {
  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8};

  // Measure one session's retained footprint on a throwaway daemon
  // (identical job => identical footprint), then budget for exactly
  // one session: storing the second must evict the first.
  uint64_t EntryBytes = 0;
  {
    std::string JP = testScratchPath("measure");
    DaemonOptions O;
    O.JournalPath = JP;
    DaemonFixture F(std::move(O));
    TypedResult R = runTyped(F.Opts.SocketPath, Job);
    ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
    EntryBytes = R.ProfileJson.size() + encodeDone(R.Summary).size();
    for (const RunDeltaMsg &D : R.Deltas)
      EntryBytes += encodeRunDelta(D).size();
    std::remove(JP.c_str());
  }
  ASSERT_GT(EntryBytes, 0u);

  std::string JournalPath = testScratchPath("evict");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  O.RetainBytes = EntryBytes; // Room for one completed session.
  DaemonFixture F(std::move(O));

  TypedResult A = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(A.Ok) << A.Error.Code << ": " << A.Error.Message;
  TypedResult B = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(B.Ok) << B.Error.Code << ": " << B.Error.Message;

  // The oldest (A) was evicted to admit B; its tombstone answers
  // resume with the dedicated code, not unknown-session, not a hang.
  JobSpec Rs;
  Rs.Resume = A.Acceptance.Session;
  TypedResult RA = runTyped(F.Opts.SocketPath, Rs);
  EXPECT_FALSE(RA.Ok);
  EXPECT_EQ(errc::ResultEvicted, RA.Error.Code);
  EXPECT_FALSE(RA.Error.Transport);

  Rs.Resume = B.Acceptance.Session;
  TypedResult RB = runTyped(F.Opts.SocketPath, Rs);
  ASSERT_TRUE(RB.Ok) << RB.Error.Code << ": " << RB.Error.Message;
  EXPECT_EQ(B.ProfileJson, RB.ProfileJson);

  EXPECT_EQ(1u, F.D->stats().ResultsEvicted);
  std::remove(JournalPath.c_str());
}

TEST(ChaosEviction, TtlEvictsOnTheInjectedClock) {
  std::shared_ptr<std::atomic<uint64_t>> Clock =
      std::make_shared<std::atomic<uint64_t>>(1000);
  std::string JournalPath = testScratchPath("ttl");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  O.RetainSecs = 10;
  O.NowMs = [Clock] { return Clock->load(); };
  DaemonFixture F(std::move(O));

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8};
  TypedResult R = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;

  // Inside the TTL the session resumes normally.
  JobSpec Rs;
  Rs.Resume = R.Acceptance.Session;
  TypedResult Fresh = runTyped(F.Opts.SocketPath, Rs);
  ASSERT_TRUE(Fresh.Ok) << Fresh.Error.Code << ": " << Fresh.Error.Message;
  EXPECT_EQ(R.ProfileJson, Fresh.ProfileJson);

  // Advance the clock past the TTL: the next resume finds a tombstone
  // (eviction happens on access or on the maintenance tick, whichever
  // comes first — both are exercised across test runs).
  Clock->fetch_add(11'000);
  TypedResult Stale = runTyped(F.Opts.SocketPath, Rs);
  EXPECT_FALSE(Stale.Ok);
  EXPECT_EQ(errc::ResultEvicted, Stale.Error.Code);
  EXPECT_GE(F.D->stats().ResultsEvicted, 1u);
  std::remove(JournalPath.c_str());
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST(ChaosDrain, FinishesInFlightSessionsThenRefusesNewOnes) {
  std::string JournalPath = testScratchPath("drain");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  DaemonFixture F(std::move(O));

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {2, 4, 6, 8, 10, 12, 14, 16};
  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  const std::string Reference =
      serialReferenceJson(corpusSource(Job.Corpus), SO);

  // A session in flight while drain() runs: it must complete its full
  // stream — deltas, byte-identical profile, Done — not be cut off.
  TypedResult R;
  std::thread ClientT([&] {
    R = runTyped(F.Opts.SocketPath, Job);
  });
  pollFor([&] { return F.D->stats().Accepted >= 1; });
  EXPECT_TRUE(F.D->drain(20000));
  ClientT.join();
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  expectExactDeltaStream(R, 8);
  EXPECT_EQ(Reference, R.ProfileJson);
  EXPECT_EQ(1u, F.D->stats().Completed);

  // Drained means no longer accepting: a new connection cannot reach
  // the daemon.
  TypedResult After = runTyped(F.Opts.SocketPath, Job);
  EXPECT_FALSE(After.Ok);
  EXPECT_TRUE(After.Error.Transport);

  F.D->stop(); // Idempotent after a full drain; nothing left to force.
  std::remove(JournalPath.c_str());
}

TEST(ChaosDrain, UnderLoadEverySessionCompletesOrStaysResumable) {
  // Drain while everything that shares state with it is busy: many
  // sessions streaming from the shared pool, the maintenance thread
  // compacting the journal every tick, and a scraper reading /metrics
  // and stats(). Run under tsan_parallel, this is the load test for
  // the SIGTERM drain path.
  std::string JournalPath = testScratchPath("drain-load");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  O.CompactBytes = 256;
  O.CompactIntervalMs = 1; // Every maintenance tick compacts.
  O.MetricsPort = 0;
  DaemonFixture F(std::move(O));
  int Port = F.D->metricsPort();
  ASSERT_GT(Port, 0);

  // Sizes large enough that the whole batch outlasts several 50 ms
  // maintenance ticks, so the sessions are still streaming at drain().
  const std::vector<std::vector<int64_t>> SeedGrids = {
      {40, 80, 120, 160, 200, 240, 280, 320},
      {60, 100, 140, 180, 220, 260, 300, 340}};
  const std::string Corpus = "seeded_insertion_sort_random";
  std::vector<std::string> References;
  for (const std::vector<int64_t> &Seeds : SeedGrids) {
    prof::SessionOptions SO;
    SO.Seeds = Seeds;
    References.push_back(serialReferenceJson(corpusSource(Corpus), SO));
  }

  std::atomic<bool> StopScrape{false};
  std::atomic<int> Scrapes{0};
  std::thread Scraper([&] {
    while (!StopScrape.load()) {
      httpGet(Port, "/metrics");
      F.D->stats();
      Scrapes.fetch_add(1);
    }
  });

  constexpr size_t NumSessions = 10;
  std::vector<TypedResult> Results(NumSessions);
  std::vector<std::thread> Clients;
  for (size_t I = 0; I < NumSessions; ++I)
    Clients.emplace_back([&, I] {
      JobSpec Job;
      Job.Corpus = Corpus;
      Job.Seeds = SeedGrids[I % SeedGrids.size()];
      Results[I] = runTyped(F.Opts.SocketPath, Job);
    });
  pollFor([&] { return F.D->stats().Accepted >= NumSessions; }, 60000);
  Daemon::Stats AtDrain = F.D->stats();
  EXPECT_EQ(NumSessions, AtDrain.Accepted);
  EXPECT_GE(AtDrain.Accepted - AtDrain.Completed, 8u)
      << "the batch finished before drain(); it no longer tests load";

  EXPECT_TRUE(F.D->drain(120000));
  for (std::thread &T : Clients)
    T.join();
  // Let the scraper race the drained daemon a little longer: stats()
  // and /metrics must stay safe after the sessions are reaped.
  int ScrapesAtDrain = Scrapes.load();
  pollFor([&] { return Scrapes.load() >= ScrapesAtDrain + 3; }, 2000);
  StopScrape.store(true);
  Scraper.join();
  EXPECT_GT(Scrapes.load(), 0);
  EXPECT_GT(F.D->stats().Compactions, 0u);
  F.D->stop();

  // Every accepted session either finished byte-identically or is
  // still pending in the journal, which a restarted daemon replays
  // (ServiceDaemon.ReplaysJournaledJobAndServesByteIdenticalResume).
  Journal::LoadResult LR;
  std::string Err;
  ASSERT_TRUE(Journal::load(JournalPath, LR, Err)) << Err;
  for (size_t I = 0; I < NumSessions; ++I) {
    SCOPED_TRACE("session " + std::to_string(I));
    const TypedResult &R = Results[I];
    ASSERT_TRUE(R.Accepted) << R.Error.Code << ": " << R.Error.Message;
    if (R.Ok) {
      expectExactDeltaStream(R, 8);
      EXPECT_EQ(References[I % SeedGrids.size()], R.ProfileJson);
    } else {
      EXPECT_TRUE(std::any_of(LR.Pending.begin(), LR.Pending.end(),
                              [&](const Journal::PendingJob &P) {
                                return P.Id == R.Acceptance.Session;
                              }))
          << "session " << R.Acceptance.Session
          << " neither completed nor stayed resumable";
    }
  }
  std::remove(JournalPath.c_str());
}

//===----------------------------------------------------------------------===//
// Liveness and readiness endpoints
//===----------------------------------------------------------------------===//

TEST(ChaosHealth, HealthzAndReadyzTrackDaemonState) {
  std::string JournalPath = testScratchPath("health");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  O.MetricsPort = 0;
  DaemonFixture F(std::move(O));
  int Port = F.D->metricsPort();
  ASSERT_GT(Port, 0);

  std::string Health = httpGet(Port, "/healthz");
  EXPECT_NE(std::string::npos, Health.find("200 OK")) << Health;
  EXPECT_NE(std::string::npos, Health.find("ok")) << Health;

  std::string Ready = httpGet(Port, "/readyz");
  EXPECT_NE(std::string::npos, Ready.find("200 OK")) << Ready;

  // /metrics still serves next to them, and the probes were counted.
  std::string Metrics = httpGet(Port, "/metrics");
  EXPECT_NE(std::string::npos,
            Metrics.find("algoprof_counter_total{counter=\"health_checks\"}"))
      << Metrics.substr(0, 400);
  EXPECT_EQ(2u, F.D->stats().HealthChecks);

  // Unknown paths are 404, not a crash, not a health answer.
  std::string Missing = httpGet(Port, "/nope");
  EXPECT_NE(std::string::npos, Missing.find("404")) << Missing;

  // A draining daemon is alive but not ready — load balancers stop
  // routing to it while in-flight work finishes.
  EXPECT_TRUE(F.D->drain(5000));
  std::string Draining = httpGet(Port, "/healthz");
  EXPECT_NE(std::string::npos, Draining.find("200 OK")) << Draining;
  std::string NotReady = httpGet(Port, "/readyz");
  EXPECT_NE(std::string::npos, NotReady.find("503")) << NotReady;
  EXPECT_EQ(4u, F.D->stats().HealthChecks);
  std::remove(JournalPath.c_str());
}
