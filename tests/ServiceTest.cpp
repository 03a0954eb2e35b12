//===- tests/ServiceTest.cpp - Daemon, protocol, and streaming tests ------===//
//
// The profiling-as-a-service layer end to end: the algoprof-wire/2
// codecs, daemon admission control (frame hygiene, quotas, session caps,
// TCP auth), streamed sessions whose final profile must be
// byte-identical to the serial CLI path, delta content (incremental
// tree repetitions, refreshed fits), slow-client backpressure, the
// durable job journal with replay and resume, client-disconnect
// survival, the /metrics endpoint, the content-keyed CompileCache, and
// a 64-session concurrent soak with fault injection.
//
//===----------------------------------------------------------------------===//

#include "core/CompileCache.h"
#include "core/Session.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Journal.h"

#include "ServiceTestUtil.h"
#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace algoprof;
using namespace algoprof::service;
using namespace algoprof::testutil;

namespace {

void writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.is_open()) << Path;
  Out << Data;
}

/// Connects a raw client socket; -1 on failure.
int rawConnect(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol codecs
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, FrameRoundtripOverSocketpair) {
  int Sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv));
  std::string Payload = "hello\n\0binary\xff ok";
  Payload += std::string(1, '\0');
  ASSERT_TRUE(sendFrame(Sv[0], FrameType::Profile, Payload));
  Frame F;
  ASSERT_EQ(ReadStatus::Ok, readFrame(Sv[1], F, 1 << 20));
  EXPECT_EQ(FrameType::Profile, F.Type);
  EXPECT_EQ(Payload, F.Payload);

  // Oversized: declared length above the cap, body never read.
  ASSERT_TRUE(sendFrame(Sv[0], FrameType::Job, std::string(64, 'x')));
  EXPECT_EQ(ReadStatus::Oversized, readFrame(Sv[1], F, 16));

  ::close(Sv[0]);
  ::close(Sv[1]);
}

TEST(ServiceProtocol, JobRequestRoundtrip) {
  JobRequest R;
  R.Source = "class Main { static void main() { } }\nwith=weird\nlines";
  R.Seeds = {4, 8, 12};
  R.Policy = resilience::FailurePolicy::Retry;
  R.MaxAttempts = 5;
  R.MaxHeapBytes = 1 << 20;
  R.RunDeadlineMs = 250;
  R.InjectSpec = "heap-oom@run1:once";
  R.EntryClass = "App";
  R.EntryMethod = "run";
  R.Auth = "s3kr1t-token";

  JobRequest P;
  std::string Err;
  std::string Wire = encodeJobRequest(R);
  EXPECT_EQ(0u, Wire.find("algoprof-wire/2\n"));
  ASSERT_TRUE(parseJobRequest(Wire, P, Err)) << Err;
  EXPECT_EQ(R.Source, P.Source);
  EXPECT_EQ(R.Seeds, P.Seeds);
  EXPECT_EQ(R.Policy, P.Policy);
  EXPECT_EQ(R.MaxAttempts, P.MaxAttempts);
  EXPECT_EQ(R.MaxHeapBytes, P.MaxHeapBytes);
  EXPECT_EQ(R.RunDeadlineMs, P.RunDeadlineMs);
  EXPECT_EQ(R.InjectSpec, P.InjectSpec);
  EXPECT_EQ(R.EntryClass, P.EntryClass);
  EXPECT_EQ(R.EntryMethod, P.EntryMethod);
  EXPECT_EQ(R.Auth, P.Auth);

  // Corpus jobs with unseeded runs and an input channel.
  JobRequest C;
  C.Corpus = "insertion_sort";
  C.Runs = 3;
  C.Input = {7, 9};
  ASSERT_TRUE(parseJobRequest(encodeJobRequest(C), P, Err)) << Err;
  EXPECT_EQ(C.Corpus, P.Corpus);
  EXPECT_EQ(C.Runs, P.Runs);
  EXPECT_EQ(C.Input, P.Input);

  // Resume jobs carry no program at all.
  JobRequest Rs;
  Rs.Resume = 17;
  ASSERT_TRUE(parseJobRequest(encodeJobRequest(Rs), P, Err)) << Err;
  EXPECT_EQ(17u, P.Resume);
  EXPECT_TRUE(P.Corpus.empty());
}

TEST(ServiceProtocol, JobRequestRejectsGarbage) {
  JobRequest P;
  std::string Err;
  // Wrong version, unknown key, bad ints, wrong source byte count,
  // neither corpus nor source nor resume, conflicting goals, zero
  // resume id.
  for (const std::string &Bad : {
           std::string("algoprof-job/9\ncorpus=x\n"),
           std::string("algoprof-wire/2\nwat=1\ncorpus=x\n"),
           std::string("algoprof-wire/2\ncorpus=x\nruns=zero\n"),
           std::string("algoprof-wire/2\nsource=10\nshort"),
           std::string("algoprof-wire/2\nruns=2\n"),
           std::string("algoprof-wire/2\ncorpus=x\nsource=2\nhi"),
           std::string("algoprof-wire/2\ncorpus=x\nresume=1\n"),
           std::string("algoprof-wire/2\nresume=0\n"),
       }) {
    EXPECT_FALSE(parseJobRequest(Bad, P, Err)) << Bad;
    EXPECT_FALSE(Err.empty());
  }

  // An unknown version's rejection names what IS supported, so old
  // daemons fail future clients diagnosably — and the retired
  // algoprof-job/1 line is just another unknown version.
  for (const char *Old : {"algoprof-wire/3\ncorpus=x\n",
                          "algoprof-job/1\ncorpus=x\n"}) {
    EXPECT_FALSE(parseJobRequest(Old, P, Err)) << Old;
    EXPECT_NE(Err.find("unsupported protocol"), std::string::npos) << Err;
    EXPECT_NE(Err.find("algoprof-wire/2"), std::string::npos) << Err;
  }
}

TEST(ServiceProtocol, ResponseCodecs) {
  AcceptedMsg A;
  A.Session = 42;
  A.Runs = 7;
  A.Resumed = true;
  AcceptedMsg A2;
  // The constant proto=2 line keeps Accepted frames byte-identical for
  // clients that still read it.
  EXPECT_EQ("session=42\nruns=7\nproto=2\nresumed=1\nresumed-from=0\n",
            encodeAccepted(A));
  ASSERT_TRUE(parseAccepted(encodeAccepted(A), A2));
  EXPECT_EQ(A.Session, A2.Session);
  EXPECT_EQ(A.Runs, A2.Runs);
  EXPECT_EQ(A.Resumed, A2.Resumed);

  RunDeltaMsg M;
  M.Run = 3;
  M.Index = 3;
  M.Total = 8;
  M.Status = "budget";
  M.Budget = "heap_bytes";
  M.Attempts = 2;
  M.Quarantined = true;
  M.MergedRuns = 3;
  M.TreeRepetitions = 123;
  M.NewRepetitions = 45;
  M.Fits = {{"sort", "0.25*n^2"}, {"scan", "2.0*n"}};
  RunDeltaMsg M2;
  ASSERT_TRUE(parseRunDelta(encodeRunDelta(M), M2));
  EXPECT_EQ(M.Run, M2.Run);
  EXPECT_EQ(M.Status, M2.Status);
  EXPECT_EQ(M.Budget, M2.Budget);
  EXPECT_EQ(M.Attempts, M2.Attempts);
  EXPECT_EQ(M.Quarantined, M2.Quarantined);
  EXPECT_EQ(M.MergedRuns, M2.MergedRuns);
  EXPECT_EQ(M.TreeRepetitions, M2.TreeRepetitions);
  EXPECT_EQ(M.NewRepetitions, M2.NewRepetitions);
  ASSERT_EQ(2u, M2.Fits.size());
  EXPECT_EQ("sort", M2.Fits[0].Label);
  EXPECT_EQ("0.25*n^2", M2.Fits[0].Formula);
  EXPECT_EQ("scan", M2.Fits[1].Label);
  EXPECT_EQ("2.0*n", M2.Fits[1].Formula);

  DoneMsg D;
  D.Runs = 8;
  D.MergedRuns = 7;
  D.DegradedRuns = 1;
  DoneMsg D2;
  ASSERT_TRUE(parseDone(encodeDone(D), D2));
  EXPECT_EQ(D.MergedRuns, D2.MergedRuns);
  EXPECT_EQ(D.DegradedRuns, D2.DegradedRuns);

  ErrorMsg E;
  ASSERT_TRUE(parseError(
      encodeError(errc::CompileError, "line 3: bad\nline 4: worse"), E));
  EXPECT_EQ(errc::CompileError, E.Code);
  EXPECT_EQ("line 3: bad\nline 4: worse", E.Message);
}

//===----------------------------------------------------------------------===//
// Journal: load/append roundtrip and crash tolerance
//===----------------------------------------------------------------------===//

TEST(ServiceJournal, AppendLoadRoundtripAndTruncatedTail) {
  std::string Path = testScratchPath("journal");
  JobRequest Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8};
  const std::string P1 = encodeJobRequest(Job);
  Job.Seeds = {4, 8, 12};
  const std::string P2 = encodeJobRequest(Job);

  {
    Journal J;
    std::string Err;
    ASSERT_TRUE(J.open(Path, Err)) << Err;
    ASSERT_TRUE(J.appendAccepted(1, P1));
    ASSERT_TRUE(J.appendAccepted(2, P2));
    ASSERT_TRUE(J.appendCompleted(1));
  }

  Journal::LoadResult L;
  std::string Err;
  ASSERT_TRUE(Journal::load(Path, L, Err)) << Err;
  EXPECT_EQ(2u, L.MaxId);
  ASSERT_EQ(1u, L.Pending.size()); // 1 completed, only 2 pending.
  EXPECT_EQ(2u, L.Pending[0].Id);
  EXPECT_EQ(P2, L.Pending[0].Payload);

  // A crash mid-append can only truncate the tail record; the loader
  // keeps everything before it. Chop the C record's last byte.
  std::ifstream In(Path, std::ios::binary);
  std::string Whole((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  writeFile(Path, Whole.substr(0, Whole.size() - 2));
  ASSERT_TRUE(Journal::load(Path, L, Err)) << Err;
  EXPECT_EQ(2u, L.MaxId);
  ASSERT_EQ(2u, L.Pending.size()); // The truncated C(1) no longer counts.

  // A missing file is an empty, valid log.
  std::remove(Path.c_str());
  ASSERT_TRUE(Journal::load(Path, L, Err)) << Err;
  EXPECT_TRUE(L.Pending.empty());
  EXPECT_EQ(0u, L.MaxId);
}

//===----------------------------------------------------------------------===//
// CompileCache: content keying and error recovery
//===----------------------------------------------------------------------===//

TEST(ServiceCompileCache, ErrorThenFixedSourceRecompiles) {
  prof::CompileCache Cache;
  const std::string Broken = "class Main { static void main() { oops }";
  const std::string Fixed = corpusSource("insertion_sort");

  prof::CompileCache::Result R1 = Cache.get(Broken);
  EXPECT_FALSE(R1.ok());
  EXPECT_FALSE(R1.Error.empty());
  // Same content: the cached error is served, nothing recompiles.
  prof::CompileCache::Result R2 = Cache.get(Broken);
  EXPECT_FALSE(R2.ok());
  EXPECT_EQ(R1.Error, R2.Error);
  EXPECT_EQ(1u, Cache.stats().Compiles);
  EXPECT_EQ(1u, Cache.stats().Hits);

  // The fix is different content, so it can never collide with the
  // stale error — the old path-keyed cache would have returned the
  // error forever.
  prof::CompileCache::Result R3 = Cache.get(Fixed);
  EXPECT_TRUE(R3.ok()) << R3.Error;

  // invalidateErrors purges resolved failures only.
  EXPECT_EQ(1u, Cache.invalidateErrors());
  EXPECT_EQ(1u, Cache.stats().ErrorsInvalidated);
  prof::CompileCache::Result R4 = Cache.get(Broken);
  EXPECT_FALSE(R4.ok());
  EXPECT_EQ(3u, Cache.stats().Compiles); // Broken recompiled after purge.
  prof::CompileCache::Result R5 = Cache.get(Fixed);
  EXPECT_TRUE(R5.ok());
  EXPECT_EQ(R3.Program.get(), R5.Program.get()); // Success entry survived.
}

//===----------------------------------------------------------------------===//
// Streamed sessions: byte-identical profiles, delta content
//===----------------------------------------------------------------------===//

TEST(ServiceDaemon, StreamsCorpusSessionByteIdenticalToSerial) {
  DaemonFixture F;
  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8, 12, 16};

  size_t LiveDeltas = 0;
  Session S = Client::unixSocket(F.Opts.SocketPath).submit(Job);
  S.onDelta([&](const RunDeltaMsg &) { ++LiveDeltas; });
  TypedResult R = S.wait();
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  EXPECT_EQ(4u, R.Acceptance.Runs);
  EXPECT_FALSE(R.Acceptance.Resumed);
  EXPECT_EQ(R.Deltas.size(), LiveDeltas); // Callback saw every delta.

  // Deltas arrive strictly in run-index order, one per run, each
  // carrying a view of the accumulated profile: total tree
  // repetitions are monotone and decompose exactly into the per-run
  // increments, and the fitted-curve estimates appear once the series
  // has enough points for a valid fit.
  ASSERT_EQ(4u, R.Deltas.size());
  int64_t PrevReps = 0, SumNew = 0;
  for (size_t I = 0; I < R.Deltas.size(); ++I) {
    const RunDeltaMsg &D = R.Deltas[I];
    EXPECT_EQ(static_cast<int64_t>(I), D.Run);
    EXPECT_EQ("ok", D.Status);
    EXPECT_EQ(4u, D.Total);
    EXPECT_EQ(static_cast<int64_t>(I) + 1, D.MergedRuns);
    EXPECT_GE(D.TreeRepetitions, PrevReps);
    EXPECT_EQ(D.TreeRepetitions - PrevReps, D.NewRepetitions);
    PrevReps = D.TreeRepetitions;
    SumNew += D.NewRepetitions;
  }
  EXPECT_GT(PrevReps, 0);
  EXPECT_EQ(PrevReps, SumNew);
  // One merged run cannot support a fit (< 3 points); four can.
  EXPECT_TRUE(R.Deltas.front().Fits.empty());
  EXPECT_FALSE(R.Deltas.back().Fits.empty());

  EXPECT_EQ(4u, R.Summary.Runs);
  EXPECT_EQ(4u, R.Summary.MergedRuns);
  EXPECT_EQ(0u, R.Summary.DegradedRuns);

  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  EXPECT_EQ(serialReferenceJson(corpusSource(Job.Corpus), SO),
            R.ProfileJson);

  Daemon::Stats St = F.D->stats();
  EXPECT_EQ(1u, St.Accepted);
  EXPECT_EQ(1u, St.Completed);
  EXPECT_EQ(0u, St.Rejected);
  EXPECT_EQ(4u, St.DeltasStreamed);
  EXPECT_EQ(0u, St.DeltasDropped);
  EXPECT_GT(St.BytesStreamed, R.ProfileJson.size());
}

TEST(ServiceDaemon, StreamsInlineSourceWithInjectedFaults) {
  DaemonFixture F;
  JobSpec Job;
  Job.Source = corpusSource("seeded_insertion_sort_reversed");
  Job.Seeds = {4, 8, 12, 16, 20};
  Job.Policy = resilience::FailurePolicy::Skip;
  Job.InjectSpec = "run-start-fail@run2";

  TypedResult R = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  ASSERT_EQ(5u, R.Deltas.size());
  EXPECT_EQ("trap", R.Deltas[2].Status);
  EXPECT_TRUE(R.Deltas[2].Quarantined);
  // A quarantined run merges nothing: the accumulated tree is unchanged.
  EXPECT_EQ(0, R.Deltas[2].NewRepetitions);
  EXPECT_EQ(R.Deltas[1].TreeRepetitions, R.Deltas[2].TreeRepetitions);
  EXPECT_EQ(5u, R.Summary.Runs);
  EXPECT_EQ(4u, R.Summary.MergedRuns); // Exactly the quarantined run missing.
  EXPECT_EQ(1u, R.Summary.DegradedRuns);

  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  SO.Policy = Job.Policy;
  std::string FErr;
  ASSERT_TRUE(
      resilience::FaultPlan::parse(Job.InjectSpec, SO.Faults, FErr));
  EXPECT_EQ(serialReferenceJson(Job.Source, SO), R.ProfileJson);
  EXPECT_NE(R.ProfileJson.find("\"degraded_runs\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TCP transport and auth
//===----------------------------------------------------------------------===//

TEST(ServiceDaemon, TcpRequiresValidToken) {
  std::string TokenPath = testScratchPath("token");
  writeFile(TokenPath, "tcp-test-token-123\n");
  DaemonOptions O;
  O.ListenAddress = "127.0.0.1:0"; // Ephemeral; read back below.
  O.AuthTokenFile = TokenPath;
  DaemonFixture F(std::move(O));
  int Port = F.D->listenPort();
  ASSERT_GT(Port, 0);

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8, 12};

  // The right token streams the full session, byte-identical.
  TypedResult R = Client::tcp("127.0.0.1", static_cast<uint16_t>(Port),
                              "tcp-test-token-123")
                      .submit(Job)
                      .wait();
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  EXPECT_EQ(serialReferenceJson(corpusSource(Job.Corpus), SO),
            R.ProfileJson);

  // A wrong token and a missing token are both rejected auth-failed.
  R = Client::tcp("127.0.0.1", static_cast<uint16_t>(Port), "wrong")
          .submit(Job)
          .wait();
  ASSERT_TRUE(R.Error.any());
  EXPECT_EQ(errc::AuthFailed, R.Error.Code) << R.Error.Message;
  R = Client::tcp("127.0.0.1", static_cast<uint16_t>(Port)).submit(Job).wait();
  ASSERT_TRUE(R.Error.any());
  EXPECT_EQ(errc::AuthFailed, R.Error.Code);
  EXPECT_NE(R.Error.Message.find("missing"), std::string::npos);

  // The Unix socket on the same daemon needs no token at all.
  R = runTyped(F.Opts.SocketPath, Job);
  EXPECT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;

  Daemon::Stats St = F.D->stats();
  EXPECT_EQ(2u, St.AuthFailures);
  EXPECT_EQ(2u, St.Accepted);
  EXPECT_EQ(2u, St.Rejected);
  std::remove(TokenPath.c_str());
}

TEST(ServiceDaemon, StartRejectsInsecureConfigurations) {
  // TCP without a token file: refused at startup, not at accept time.
  {
    DaemonOptions O;
    O.SocketPath = testSocketPath();
    O.ListenAddress = "127.0.0.1:0";
    Daemon D(O);
    std::string Err;
    EXPECT_FALSE(D.start(Err));
    EXPECT_NE(Err.find("auth-token-file"), std::string::npos) << Err;
  }
  // Non-loopback /metrics without a token file: same rule — nothing
  // reachable off-host may come up token-less.
  {
    DaemonOptions O;
    O.SocketPath = testSocketPath();
    O.MetricsPort = 0;
    O.MetricsAddress = "0.0.0.0";
    Daemon D(O);
    std::string Err;
    EXPECT_FALSE(D.start(Err));
    EXPECT_NE(Err.find("auth-token-file"), std::string::npos) << Err;
  }
  // A token file that does not exist fails loudly.
  {
    DaemonOptions O;
    O.SocketPath = testSocketPath();
    O.ListenAddress = "127.0.0.1:0";
    O.AuthTokenFile = "/nonexistent/algoprof-token";
    Daemon D(O);
    std::string Err;
    EXPECT_FALSE(D.start(Err));
    EXPECT_NE(Err.find("token"), std::string::npos) << Err;
  }
}

//===----------------------------------------------------------------------===//
// Backpressure: slow clients shed deltas, never the profile
//===----------------------------------------------------------------------===//

namespace {

/// A job with enough runs that its delta stream overflows the tiny
/// send buffers configured by the backpressure tests.
JobSpec backpressureJob() {
  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  for (int I = 0; I < 96; ++I)
    Job.Seeds.push_back(4 + (I % 4) * 4);
  return Job;
}

DaemonOptions backpressureOptions(SendBuffer::Policy P) {
  DaemonOptions O;
  O.MaxSendBufferBytes = 4096;
  O.SessionSendBufBytes = 1; // Kernel clamps to its floor (~4 KiB).
  O.SlowClient = P;
  return O;
}

} // namespace

TEST(ServiceDaemon, SlowClientDropsDeltasButProfileIsIntact) {
  DaemonFixture F(backpressureOptions(SendBuffer::Policy::DropDeltas));
  JobSpec Job = backpressureJob();

  // Submit but do NOT read: the daemon's delta stream hits the kernel
  // buffer, then the bounded pending buffer, then the drop policy —
  // all without ever blocking a pool worker. Drops become visible in
  // stats() before the daemon blocks handing over the final profile.
  Session S = Client::unixSocket(F.Opts.SocketPath).submit(Job);
  ASSERT_TRUE(pollFor([&] { return F.D->stats().DeltasDropped > 0; }))
      << "no deltas dropped: backpressure never engaged";

  // Now drain the stream: the final profile is byte-identical — only
  // advisory deltas were shed, the authoritative document never
  // degrades.
  TypedResult R = S.wait();
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  EXPECT_LT(R.Deltas.size(), Job.Seeds.size());
  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  EXPECT_EQ(serialReferenceJson(corpusSource(Job.Corpus), SO),
            R.ProfileJson);

  Daemon::Stats St = F.D->stats();
  EXPECT_GT(St.DeltasDropped, 0u);
  // Every delta either streamed or dropped; none blocked, none lost.
  EXPECT_EQ(Job.Seeds.size(), St.DeltasStreamed + St.DeltasDropped);
  EXPECT_EQ(R.Deltas.size(), St.DeltasStreamed);
  // The pending buffer never outgrew its cap.
  EXPECT_LE(St.SendBufHighWater, F.Opts.MaxSendBufferBytes);
  EXPECT_EQ(0u, St.SlowDisconnects);
  EXPECT_EQ(1u, St.Completed);
}

TEST(ServiceDaemon, SlowClientDisconnectPolicyCutsTheSession) {
  DaemonFixture F(backpressureOptions(SendBuffer::Policy::Disconnect));
  JobSpec Job = backpressureJob();

  Session S = Client::unixSocket(F.Opts.SocketPath).submit(Job);
  // Under Disconnect the overflow shuts the socket down; the session
  // still runs to completion server-side (results are not client-
  // gated), it just stops streaming.
  ASSERT_TRUE(pollFor([&] { return F.D->stats().Completed >= 1; }));

  TypedResult R = S.wait();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Error.Transport) << R.Error.Code << ": "
                                 << R.Error.Message;

  Daemon::Stats St = F.D->stats();
  EXPECT_EQ(1u, St.SlowDisconnects);
  EXPECT_EQ(1u, St.Completed);
  EXPECT_LE(St.SendBufHighWater, F.Opts.MaxSendBufferBytes);
}

//===----------------------------------------------------------------------===//
// Durable queue: journal replay and session resume
//===----------------------------------------------------------------------===//

TEST(ServiceDaemon, ReplaysJournaledJobAndServesByteIdenticalResume) {
  std::string JournalPath = testScratchPath("journal");
  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8, 12, 16};

  // Fabricate the crash state: jobs accepted (journaled) by a daemon
  // that died before completing them — A records with no C. The daemon
  // was an older one that still accepted the retired algoprof-job/1.
  {
    Journal J;
    std::string Err;
    ASSERT_TRUE(J.open(JournalPath, Err)) << Err;
    ASSERT_TRUE(J.appendAccepted(
        5, "algoprof-job/1\ncorpus=seeded_insertion_sort_random\n"));
    ASSERT_TRUE(J.appendAccepted(7, encodeJobRequest(Job)));
  }

  DaemonOptions O;
  O.JournalPath = JournalPath;
  DaemonFixture F(std::move(O));

  // Resume immediately — racing the in-flight replay on purpose: the
  // daemon blocks the resume until the replayed results land.
  JobSpec Rs;
  Rs.Resume = 7;
  TypedResult R = runTyped(F.Opts.SocketPath, Rs);
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  EXPECT_TRUE(R.Acceptance.Resumed);
  EXPECT_EQ(7u, R.Acceptance.Session);
  EXPECT_EQ(4u, R.Acceptance.Runs);

  // The resumed stream is the full session: every delta, with the tree
  // counts it was retained with, then the byte-identical document.
  ASSERT_EQ(4u, R.Deltas.size());
  EXPECT_GT(R.Deltas.back().TreeRepetitions, 0);
  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  EXPECT_EQ(serialReferenceJson(corpusSource(Job.Corpus), SO),
            R.ProfileJson);

  Daemon::Stats St = F.D->stats();
  EXPECT_EQ(1u, St.JobsReplayed);
  // The replay itself is not a client session; the resume is one.
  EXPECT_EQ(1u, St.Accepted);
  EXPECT_EQ(1u, St.Completed);

  // The legacy record replayed as a failure; resuming it answers a
  // clean Error frame naming the cause, not a hang or a dropped link.
  Rs.Resume = 5;
  R = runTyped(F.Opts.SocketPath, Rs);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.Transport) << R.Error.Message;
  EXPECT_EQ(errc::BadRequest, R.Error.Code);
  EXPECT_NE(R.Error.Message.find("unreplayable journal record"),
            std::string::npos)
      << R.Error.Message;

  // New sessions on this daemon get ids above the journal's maximum —
  // replayed and live ids can never collide.
  TypedResult Live = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(Live.Ok) << Live.Error.Code << ": " << Live.Error.Message;
  EXPECT_GT(Live.Acceptance.Session, 7u);
  std::remove(JournalPath.c_str());
}

TEST(ServiceDaemon, CompletedJournalEntriesAreNotReplayed) {
  std::string JournalPath = testScratchPath("journal");
  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8};
  {
    Journal J;
    std::string Err;
    ASSERT_TRUE(J.open(JournalPath, Err)) << Err;
    ASSERT_TRUE(J.appendAccepted(3, encodeJobRequest(Job)));
    ASSERT_TRUE(J.appendCompleted(3)); // Finished before the "crash".
  }

  DaemonOptions O;
  O.JournalPath = JournalPath;
  DaemonFixture F(std::move(O));

  // Nothing pending: nothing replayed, and results of sessions that
  // completed before the restart are not retained.
  JobSpec Rs;
  Rs.Resume = 3;
  TypedResult R = runTyped(F.Opts.SocketPath, Rs);
  ASSERT_TRUE(R.Error.any());
  EXPECT_EQ(errc::UnknownSession, R.Error.Code) << R.Error.Message;
  Rs.Resume = 99; // Never journaled at all.
  R = runTyped(F.Opts.SocketPath, Rs);
  EXPECT_EQ(errc::UnknownSession, R.Error.Code);
  EXPECT_EQ(0u, F.D->stats().JobsReplayed);
  std::remove(JournalPath.c_str());
}

TEST(ServiceDaemon, ResumeNeedsAJournaledDaemon) {
  DaemonFixture F; // No JournalPath: durability off.
  JobSpec Rs;
  Rs.Resume = 1;
  TypedResult R = runTyped(F.Opts.SocketPath, Rs);
  ASSERT_TRUE(R.Error.any());
  EXPECT_EQ(errc::UnknownSession, R.Error.Code);
  EXPECT_NE(R.Error.Message.find("--journal"), std::string::npos)
      << R.Error.Message;
}

TEST(ServiceDaemon, LiveSessionIsJournaledAndResumable) {
  std::string JournalPath = testScratchPath("journal");
  DaemonOptions O;
  O.JournalPath = JournalPath;
  DaemonFixture F(std::move(O));

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_reversed";
  Job.Seeds = {4, 8, 12};
  TypedResult First = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(First.Ok) << First.Error.Code << ": " << First.Error.Message;

  // A disconnected-and-reconnecting client resumes by id and receives
  // the byte-identical stream without the job running twice.
  JobSpec Rs;
  Rs.Resume = First.Acceptance.Session;
  TypedResult Again = runTyped(F.Opts.SocketPath, Rs);
  ASSERT_TRUE(Again.Ok) << Again.Error.Code << ": " << Again.Error.Message;
  EXPECT_TRUE(Again.Acceptance.Resumed);
  EXPECT_EQ(First.ProfileJson, Again.ProfileJson);
  EXPECT_EQ(First.Deltas.size(), Again.Deltas.size());
  EXPECT_EQ(First.Summary.MergedRuns, Again.Summary.MergedRuns);
  EXPECT_EQ(0u, F.D->stats().JobsReplayed); // Served from memory.
  EXPECT_EQ(2u, F.D->stats().Completed);

  // On disk: the A record now has its C, so a restart replays nothing.
  Journal::LoadResult L;
  std::string Err;
  ASSERT_TRUE(Journal::load(JournalPath, L, Err)) << Err;
  EXPECT_TRUE(L.Pending.empty());
  std::remove(JournalPath.c_str());
}

//===----------------------------------------------------------------------===//
// Admission control and protocol edge cases
//===----------------------------------------------------------------------===//

namespace {

/// Sends raw bytes and expects an Error frame back with \p Code.
void expectRawError(const std::string &Socket, const std::string &Raw,
                    const std::string &Code) {
  Frame Reply;
  bool GotReply = false;
  std::string Err;
  ASSERT_TRUE(sendRaw(Socket, Raw, Reply, GotReply, Err)) << Err;
  ASSERT_TRUE(GotReply) << "daemon closed without an error frame";
  ASSERT_EQ(FrameType::Error, Reply.Type);
  ErrorMsg E;
  ASSERT_TRUE(parseError(Reply.Payload, E));
  EXPECT_EQ(Code, E.Code) << E.Message;
}

} // namespace

TEST(ServiceDaemon, RejectsMalformedAndTruncatedFrames) {
  DaemonOptions O;
  O.MaxFrameBytes = 4096;
  DaemonFixture F(std::move(O));

  // Unknown frame-type byte.
  std::string BadType = encodeFrame(FrameType::Job, "x");
  BadType[4] = 0x7f;
  expectRawError(F.Opts.SocketPath, BadType, errc::MalformedFrame);

  // Truncated header: three of five bytes, then EOF.
  expectRawError(F.Opts.SocketPath, std::string("\x00\x00\x01", 3),
                 errc::MalformedFrame);

  // Truncated payload: header promises 100 bytes, delivers 10.
  std::string Short = encodeFrame(FrameType::Job, std::string(100, 'y'));
  Short.resize(5 + 10);
  expectRawError(F.Opts.SocketPath, Short, errc::MalformedFrame);

  // Right framing, wrong frame type for an opening message.
  expectRawError(F.Opts.SocketPath, encodeFrame(FrameType::Done, ""),
                 errc::MalformedFrame);

  // Oversized: the declared length alone triggers rejection; the body
  // is never transmitted.
  std::string Huge = encodeFrame(FrameType::Job, "");
  Huge[0] = 0x01; // 16 MiB declared, nothing sent.
  expectRawError(F.Opts.SocketPath, Huge, errc::OversizedFrame);

  // A payload the codec rejects — including an unsupported version.
  expectRawError(F.Opts.SocketPath,
                 encodeFrame(FrameType::Job, "not-a-version\n"),
                 errc::BadRequest);
  expectRawError(
      F.Opts.SocketPath,
      encodeFrame(FrameType::Job, "algoprof-wire/7\ncorpus=x\n"),
      errc::BadRequest);
  expectRawError(
      F.Opts.SocketPath,
      encodeFrame(FrameType::Job, "algoprof-wire/2\ncorpus=no_such\n"),
      errc::BadRequest);

  // The retired algoprof-job/1 line is just an unknown version.
  expectRawError(
      F.Opts.SocketPath,
      encodeFrame(FrameType::Job, "algoprof-job/1\ncorpus=insertion_sort\n"),
      errc::BadRequest);

  EXPECT_EQ(9u, F.D->stats().Rejected);
  EXPECT_EQ(0u, F.D->stats().Accepted);
}

TEST(ServiceDaemon, EnforcesSessionQuotas) {
  DaemonOptions O;
  O.Quota.MaxRuns = 4;
  O.Quota.MaxSourceBytes = 1 << 16;
  O.Quota.MaxHeapBytes = 1 << 20;
  O.Quota.MaxRunDeadlineMs = 10000;
  O.Quota.MaxAttempts = 3;
  DaemonFixture F(std::move(O));

  auto expectQuota = [&](const JobSpec &Job) {
    TypedResult R = runTyped(F.Opts.SocketPath, Job);
    ASSERT_TRUE(R.Error.any());
    EXPECT_FALSE(R.Error.Transport) << R.Error.Message;
    EXPECT_EQ(errc::QuotaExceeded, R.Error.Code) << R.Error.Message;
  };

  JobSpec TooManyRuns;
  TooManyRuns.Corpus = "seeded_insertion_sort_random";
  TooManyRuns.Seeds = {1, 2, 3, 4, 5};
  expectQuota(TooManyRuns);

  JobSpec TooMuchHeap;
  TooMuchHeap.Corpus = "seeded_insertion_sort_random";
  TooMuchHeap.Seeds = {4};
  TooMuchHeap.MaxHeapBytes = (1 << 20) + 1;
  expectQuota(TooMuchHeap);

  JobSpec TooLongDeadline = TooMuchHeap;
  TooLongDeadline.MaxHeapBytes = 0;
  TooLongDeadline.RunDeadlineMs = 10001;
  expectQuota(TooLongDeadline);

  JobSpec TooManyAttempts = TooMuchHeap;
  TooManyAttempts.MaxHeapBytes = 0;
  TooManyAttempts.Policy = resilience::FailurePolicy::Retry;
  TooManyAttempts.MaxAttempts = 4;
  expectQuota(TooManyAttempts);

  JobSpec TooBigSource;
  TooBigSource.Source = std::string((1 << 16) + 1, 'x');
  TooBigSource.Seeds = {4};
  expectQuota(TooBigSource);

  // Within quota still works; the unlimited heap request was clamped
  // to the cap, which these tiny runs never hit.
  JobSpec Ok;
  Ok.Corpus = "seeded_insertion_sort_random";
  Ok.Seeds = {4, 8};
  TypedResult R = runTyped(F.Opts.SocketPath, Ok);
  EXPECT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  EXPECT_EQ(5u, F.D->stats().Rejected);
  EXPECT_EQ(1u, F.D->stats().Completed);
}

TEST(ServiceDaemon, RejectsWhenSessionLimitReached) {
  DaemonOptions O;
  O.MaxSessions = 1;
  O.ReadTimeoutMs = 10000; // The idle holder must outlive the test.
  DaemonFixture F(std::move(O));

  // An idle connection occupies the only slot (admission is per
  // connection, before any byte is parsed).
  int Holder = rawConnect(F.Opts.SocketPath);
  ASSERT_GE(Holder, 0);

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4};
  TypedResult R = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(R.Error.any());
  EXPECT_EQ(errc::TooManySessions, R.Error.Code);

  // Freeing the slot re-admits. The daemon reaps finished sessions on
  // the accept path, so retry until the close has been observed.
  ::close(Holder);
  bool Admitted = false;
  for (int Try = 0; Try < 100 && !Admitted; ++Try) {
    R = runTyped(F.Opts.SocketPath, Job);
    if (R.Ok)
      Admitted = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(Admitted);
}

TEST(ServiceDaemon, SessionLimitReplyReachesAClientStillSending) {
  DaemonOptions O;
  O.MaxSessions = 1;
  O.ReadTimeoutMs = 10000;
  DaemonFixture F(std::move(O));
  int Holder = rawConnect(F.Opts.SocketPath);
  ASSERT_GE(Holder, 0);

  // A job far larger than the socket buffer: the daemon rejects at
  // accept and closes before the client has written it, so the send
  // fails. The rejection sent before the close must still be reported.
  JobSpec Job;
  Job.Source = std::string(8u << 20, 'x');
  Job.Seeds = {4};
  TypedResult R = runTyped(F.Opts.SocketPath, Job);
  EXPECT_FALSE(R.Error.Transport) << R.Error.Message;
  EXPECT_EQ(errc::TooManySessions, R.Error.Code) << R.Error.Message;
  ::close(Holder);
}

TEST(ServiceDaemon, CompileErrorsAreAnsweredAndNotPermanent) {
  DaemonFixture F;
  const std::string Broken = "class Main { static void main() { ";
  JobSpec Bad;
  Bad.Source = Broken;
  Bad.Seeds = {4};

  TypedResult R = runTyped(F.Opts.SocketPath, Bad);
  ASSERT_TRUE(R.Error.any());
  EXPECT_EQ(errc::CompileError, R.Error.Code);
  EXPECT_FALSE(R.Error.Message.empty());

  // The "fixed" resubmission is new content: it compiles and profiles
  // (under the old path-keyed error caching this returned the stale
  // diagnostics forever).
  JobSpec Fixed = Bad;
  Fixed.Source = corpusSource("seeded_insertion_sort_random");
  R = runTyped(F.Opts.SocketPath, Fixed);
  EXPECT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;

  // And the same broken source again still answers (recompiled after
  // the daemon purged the error entry; behavior, not blowup).
  R = runTyped(F.Opts.SocketPath, Bad);
  ASSERT_TRUE(R.Error.any());
  EXPECT_EQ(errc::CompileError, R.Error.Code);
}

TEST(ServiceDaemon, SurvivesClientDisconnectMidStream) {
  DaemonFixture F;

  // By hand: send the job, read Accepted, vanish. The daemon keeps
  // running the session on the shared pool and completes it.
  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8, 12, 16, 20, 24};
  int Fd = rawConnect(F.Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendFrame(Fd, FrameType::Job, encodeJobRequest(Job)));
  Frame A;
  ASSERT_EQ(ReadStatus::Ok, readFrame(Fd, A, 1 << 20));
  ASSERT_EQ(FrameType::Accepted, A.Type);
  ::close(Fd); // Gone mid-stream.

  // The abandoned session still completes (bounded wait).
  EXPECT_TRUE(pollFor([&] { return F.D->stats().Completed >= 1; }, 5000));

  // The pool is unaffected: a fresh session streams normally and its
  // profile still matches the serial reference byte for byte.
  TypedResult R = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(R.Ok) << R.Error.Code << ": " << R.Error.Message;
  prof::SessionOptions SO;
  SO.Seeds = Job.Seeds;
  EXPECT_EQ(serialReferenceJson(corpusSource(Job.Corpus), SO),
            R.ProfileJson);
  EXPECT_EQ(2u, F.D->stats().Accepted);
  EXPECT_EQ(2u, F.D->stats().Completed);
}

//===----------------------------------------------------------------------===//
// /metrics
//===----------------------------------------------------------------------===//

TEST(ServiceDaemon, MetricsEndpointServesLiveRegistry) {
  DaemonOptions O;
  O.MetricsPort = 0; // Ephemeral.
  DaemonFixture F(std::move(O));
  ASSERT_GT(F.D->metricsPort(), 0);

  JobSpec Job;
  Job.Corpus = "seeded_insertion_sort_random";
  Job.Seeds = {4, 8, 12};
  TypedResult R = runTyped(F.Opts.SocketPath, Job);
  ASSERT_TRUE(R.Ok);

  // Scraped MID pool lifetime: the daemon's workers are alive and will
  // never retire, so nonzero worker counters here prove the per-job
  // obs::flushThisThread publication (the old exit-time-only folding
  // reported zeros until shutdown).
  std::string Resp = httpGet(F.D->metricsPort(), "/metrics");
  ASSERT_NE(Resp.find("200 OK"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("algoprof_counter_total{counter=\"sessions_"
                      "accepted\"}"),
            std::string::npos);
  // The stage-2 counters are registered and exposed.
  EXPECT_NE(Resp.find("counter=\"deltas_streamed\""), std::string::npos);
  EXPECT_NE(Resp.find("counter=\"deltas_dropped\""), std::string::npos);
  EXPECT_NE(Resp.find("counter=\"jobs_replayed\""), std::string::npos);
  EXPECT_NE(Resp.find("counter=\"auth_failures\""), std::string::npos);
  // Counters are process-cumulative across tests in this binary, so
  // assert presence-and-nonzero, not exact values (exact accounting is
  // Daemon::stats()'s job, asserted everywhere above).
  EXPECT_EQ(Resp.find("algoprof_counter_total{counter=\"sessions_"
                      "completed\"} 0\n"),
            std::string::npos);
  EXPECT_EQ(Resp.find("algoprof_counter_total{counter=\"jobs_executed\"} "
                      "0\n"),
            std::string::npos);
  EXPECT_EQ(Resp.find("algoprof_counter_total{counter=\"bytes_streamed\"} "
                      "0\n"),
            std::string::npos);

  EXPECT_NE(httpGet(F.D->metricsPort(), "/nope").find("404"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Soak: 64 concurrent streamed sessions under fault injection
//===----------------------------------------------------------------------===//

TEST(ServiceDaemon, Soak64ConcurrentSessionsWithFaults) {
  DaemonOptions O;
  O.Workers = 4;
  O.MetricsPort = 0;
  DaemonFixture F(std::move(O));

  // Four program/option shapes, 16 sessions each. Shape 3 injects a
  // startup fault under the skip policy, so a quarter of all sessions
  // exercise quarantine accounting concurrently.
  struct Shape {
    std::string Corpus;
    std::vector<int64_t> Seeds;
    resilience::FailurePolicy Policy;
    std::string Inject;
    size_t Quarantined;
  };
  const std::vector<Shape> Shapes = {
      {"seeded_insertion_sort_random", {4, 8, 12, 16},
       resilience::FailurePolicy::Fail, "", 0},
      {"seeded_insertion_sort_sorted", {4, 8, 12},
       resilience::FailurePolicy::Fail, "", 0},
      {"seeded_insertion_sort_reversed", {4, 8, 12, 16, 20},
       resilience::FailurePolicy::Fail, "", 0},
      {"seeded_insertion_sort_random", {4, 8, 12, 16},
       resilience::FailurePolicy::Skip, "run-start-fail@run1", 1},
  };

  // References computed once per shape through the serial CLI path;
  // every concurrent streamed session must reproduce them exactly.
  std::vector<std::string> Reference(Shapes.size());
  for (size_t I = 0; I < Shapes.size(); ++I) {
    prof::SessionOptions SO;
    SO.Seeds = Shapes[I].Seeds;
    SO.Policy = Shapes[I].Policy;
    std::string FErr;
    ASSERT_TRUE(
        resilience::FaultPlan::parse(Shapes[I].Inject, SO.Faults, FErr));
    Reference[I] = serialReferenceJson(corpusSource(Shapes[I].Corpus), SO);
  }

  constexpr size_t NumSessions = 64;
  std::vector<std::string> Failures(NumSessions);
  std::vector<std::thread> Clients;
  Clients.reserve(NumSessions);
  for (size_t I = 0; I < NumSessions; ++I)
    Clients.emplace_back([&, I] {
      const Shape &Sh = Shapes[I % Shapes.size()];
      JobSpec Job;
      Job.Corpus = Sh.Corpus;
      Job.Seeds = Sh.Seeds;
      Job.Policy = Sh.Policy;
      Job.InjectSpec = Sh.Inject;
      TypedResult R = runTyped(F.Opts.SocketPath, Job);
      if (!R.Ok) {
        Failures[I] = R.Error.Code + ": " + R.Error.Message;
        return;
      }
      if (R.Deltas.size() != Sh.Seeds.size()) {
        Failures[I] = "expected " + std::to_string(Sh.Seeds.size()) +
                      " deltas, got " + std::to_string(R.Deltas.size());
        return;
      }
      size_t Quarantined = 0;
      for (size_t K = 0; K < R.Deltas.size(); ++K) {
        if (R.Deltas[K].Run != static_cast<int64_t>(K)) {
          Failures[I] = "deltas out of order";
          return;
        }
        Quarantined += R.Deltas[K].Quarantined ? 1 : 0;
      }
      // Exact quarantine accounting, per session, under concurrency.
      if (Quarantined != Sh.Quarantined ||
          R.Summary.Runs != Sh.Seeds.size() ||
          R.Summary.MergedRuns != Sh.Seeds.size() - Sh.Quarantined ||
          R.Summary.DegradedRuns != Sh.Quarantined) {
        Failures[I] = "quarantine accounting off";
        return;
      }
      if (R.ProfileJson != Reference[I % Shapes.size()])
        Failures[I] = "profile diverged from the serial reference";
    });

  // A scrape while the soak is in flight must answer.
  std::string MidFlight = httpGet(F.D->metricsPort(), "/metrics");
  EXPECT_NE(MidFlight.find("200 OK"), std::string::npos);

  for (std::thread &T : Clients)
    T.join();
  for (size_t I = 0; I < NumSessions; ++I)
    EXPECT_TRUE(Failures[I].empty()) << "session " << I << ": "
                                     << Failures[I];

  Daemon::Stats S = F.D->stats();
  EXPECT_EQ(NumSessions, S.Accepted);
  EXPECT_EQ(NumSessions, S.Completed);
  EXPECT_EQ(0u, S.Rejected);

  std::string Final = httpGet(F.D->metricsPort(), "/metrics");
  EXPECT_NE(Final.find("200 OK"), std::string::npos);
  EXPECT_NE(Final.find("sessions_completed"), std::string::npos);
}
