//===- service/Daemon.cpp -------------------------------------------------===//

#include "service/Daemon.h"

#include "core/Session.h"
#include "service/Io.h"
#include "obs/MetricsExport.h"
#include "obs/Obs.h"
#include "parallel/SweepEngine.h"
#include "programs/Programs.h"
#include "report/Reporter.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace algoprof;
using namespace algoprof::service;

namespace {

void setRecvTimeout(int Fd, unsigned Ms) {
  struct timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = static_cast<suseconds_t>((Ms % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

const programs::CorpusProgram *findCorpusProgram(const std::string &Name) {
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    if (P.Name == Name)
      return &P;
  return nullptr;
}

/// Token comparison that does not leak the match prefix through
/// timing. (A length mismatch fails, as any comparison must; only the
/// content comparison needs to be constant-time.)
bool constantTimeEq(const std::string &A, const std::string &B) {
  unsigned char Diff = A.size() == B.size() ? 0 : 1;
  size_t N = B.empty() ? 0 : A.size();
  for (size_t I = 0; I < N; ++I)
    Diff |= static_cast<unsigned char>(A[I]) ^
            static_cast<unsigned char>(B[I % B.size()]);
  return Diff == 0;
}

/// First line of \p Path, trailing whitespace stripped.
bool readTokenFile(const std::string &Path, std::string &Token,
                   std::string &Err) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Err = "auth token file '" + Path + "': " + std::strerror(errno);
    return false;
  }
  char Buf[4096];
  std::string Data;
  for (;;) {
    ssize_t R = ::read(Fd, Buf, sizeof(Buf));
    if (R > 0) {
      Data.append(Buf, static_cast<size_t>(R));
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    break;
  }
  ::close(Fd);
  size_t Nl = Data.find('\n');
  Token = Nl == std::string::npos ? Data : Data.substr(0, Nl);
  while (!Token.empty() &&
         (Token.back() == '\r' || Token.back() == ' ' ||
          Token.back() == '\t'))
    Token.pop_back();
  if (Token.empty()) {
    Err = "auth token file '" + Path + "' is empty";
    return false;
  }
  return true;
}

bool parseHostPort(const std::string &S, std::string &Host, uint16_t &Port,
                   std::string &Err) {
  size_t Colon = S.rfind(':');
  if (Colon == std::string::npos || Colon == 0) {
    Err = "listen address '" + S + "' is not host:port";
    return false;
  }
  Host = S.substr(0, Colon);
  std::string P = S.substr(Colon + 1);
  if (P.empty() || P.size() > 5 ||
      P.find_first_not_of("0123456789") != std::string::npos) {
    Err = "listen address '" + S + "' has an invalid port";
    return false;
  }
  long V = std::strtol(P.c_str(), nullptr, 10);
  if (V < 0 || V > 65535) {
    Err = "listen address '" + S + "' has an invalid port";
    return false;
  }
  Port = static_cast<uint16_t>(V);
  return true;
}

bool parseIpv4(const std::string &Host, in_addr &Out, std::string &Err) {
  if (::inet_pton(AF_INET, Host.c_str(), &Out) != 1) {
    Err = "'" + Host + "' is not an IPv4 address";
    return false;
  }
  return true;
}

bool isLoopback(const in_addr &A) {
  return (ntohl(A.s_addr) >> 24) == 127;
}

void fetchMax(std::atomic<uint64_t> &Target, uint64_t V) {
  uint64_t Cur = Target.load();
  while (V > Cur && !Target.compare_exchange_weak(Cur, V))
    ;
}

} // namespace

Daemon::Daemon(DaemonOptions O)
    : Opts(std::move(O)),
      Pool(prof::workerCount(static_cast<int>(Opts.Workers))) {}

Daemon::~Daemon() { stop(); }

Daemon::Stats Daemon::stats() const {
  Stats S;
  S.Accepted = StatAccepted.load();
  S.Rejected = StatRejected.load();
  S.Completed = StatCompleted.load();
  S.BytesStreamed = StatBytes.load();
  S.DeltasStreamed = StatDeltasStreamed.load();
  S.DeltasDropped = StatDeltasDropped.load();
  S.JobsReplayed = StatJobsReplayed.load();
  S.AuthFailures = StatAuthFailures.load();
  S.SlowDisconnects = StatSlowDisconnects.load();
  S.SendBufHighWater = StatSendBufHighWater.load();
  S.ResultsEvicted = StatResultsEvicted.load();
  S.Compactions = StatCompactions.load();
  S.HealthChecks = StatHealthChecks.load();
  return S;
}

uint64_t Daemon::nowMs() const {
  if (Opts.NowMs)
    return Opts.NowMs();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Daemon::start(std::string &Err) {
  // --- Validate the transport/auth combination ----------------------
  if (!Opts.ListenAddress.empty() && Opts.AuthTokenFile.empty()) {
    Err = "--listen requires --auth-token-file: TCP clients must "
          "authenticate";
    return false;
  }
  in_addr MetricsAddr{};
  if (Opts.MetricsPort >= 0) {
    if (!parseIpv4(Opts.MetricsAddress, MetricsAddr, Err))
      return false;
    if (!isLoopback(MetricsAddr) && Opts.AuthTokenFile.empty()) {
      Err = "non-loopback /metrics bind '" + Opts.MetricsAddress +
            "' requires --auth-token-file";
      return false;
    }
  }
  if (!Opts.AuthTokenFile.empty() &&
      !readTokenFile(Opts.AuthTokenFile, AuthToken, Err))
    return false;

  // --- Durable queue: load + replay the journal ---------------------
  Journal::LoadResult Pending;
  if (!Opts.JournalPath.empty()) {
    if (!Journal::load(Opts.JournalPath, Pending, Err))
      return false;
    if (!Wal.open(Opts.JournalPath, Err))
      return false;
    uint64_t Next = Pending.MaxId + 1;
    if (Next > NextSessionId.load())
      NextSessionId.store(Next);
    // Register every pending job before anything can connect, so a
    // resume for an id the journal never saw is answerable immediately
    // while a replay still in flight blocks until its results land.
    std::lock_guard<std::mutex> Lock(RetainedMu);
    for (const Journal::PendingJob &J : Pending.Pending)
      RetainedResults.emplace(J.Id, Retained());
  }

  // --- Unix-domain listener (always on) -----------------------------
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path empty or too long: '" + Opts.SocketPath + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Opts.SocketPath.c_str()); // Stale socket from a dead daemon.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 64) < 0) {
    Err = std::string("bind/listen '") + Opts.SocketPath +
          "': " + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  auto FailStart = [&](const std::string &E) {
    Err = E;
    ::close(ListenFd);
    ListenFd = -1;
    if (TcpListenFd >= 0) {
      ::close(TcpListenFd);
      TcpListenFd = -1;
    }
    return false;
  };

  // --- Optional TCP listener ----------------------------------------
  if (!Opts.ListenAddress.empty()) {
    std::string Host, E;
    uint16_t Port = 0;
    in_addr Ip{};
    if (!parseHostPort(Opts.ListenAddress, Host, Port, E) ||
        !parseIpv4(Host, Ip, E))
      return FailStart(E);
    TcpListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (TcpListenFd < 0)
      return FailStart(std::string("tcp socket: ") + std::strerror(errno));
    int One = 1;
    ::setsockopt(TcpListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in TAddr{};
    TAddr.sin_family = AF_INET;
    TAddr.sin_addr = Ip;
    TAddr.sin_port = htons(Port);
    socklen_t TLen = sizeof(TAddr);
    if (::bind(TcpListenFd, reinterpret_cast<sockaddr *>(&TAddr), TLen) <
            0 ||
        ::listen(TcpListenFd, 64) < 0 ||
        ::getsockname(TcpListenFd, reinterpret_cast<sockaddr *>(&TAddr),
                      &TLen) < 0)
      return FailStart("tcp bind/listen '" + Opts.ListenAddress +
                       "': " + std::strerror(errno));
    BoundListenPort = ntohs(TAddr.sin_port);
  }

  // --- Optional /metrics --------------------------------------------
  if (Opts.MetricsPort >= 0) {
    MetricsFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (MetricsFd < 0)
      return FailStart(std::string("metrics socket: ") +
                       std::strerror(errno));
    int One = 1;
    ::setsockopt(MetricsFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in MAddr{};
    MAddr.sin_family = AF_INET;
    MAddr.sin_addr = MetricsAddr;
    MAddr.sin_port = htons(static_cast<uint16_t>(Opts.MetricsPort));
    socklen_t MLen = sizeof(MAddr);
    if (::bind(MetricsFd, reinterpret_cast<sockaddr *>(&MAddr), MLen) < 0 ||
        ::listen(MetricsFd, 16) < 0 ||
        ::getsockname(MetricsFd, reinterpret_cast<sockaddr *>(&MAddr),
                      &MLen) < 0) {
      std::string E = std::string("metrics bind/listen: ") +
                      std::strerror(errno);
      ::close(MetricsFd);
      MetricsFd = -1;
      return FailStart(E);
    }
    BoundMetricsPort = ntohs(MAddr.sin_port);
    MetricsThread = std::thread([this] { metricsLoop(); });
  }

  // --- Replay sessions, then accept ---------------------------------
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    for (Journal::PendingJob &J : Pending.Pending) {
      Sessions.push_back(std::make_unique<Session>());
      Session &S = *Sessions.back();
      S.ReplayId = J.Id;
      S.ReplayPayload = std::move(J.Payload);
      S.T = std::thread([this, &S] { replayJob(S); });
    }
  }
  AcceptThread = std::thread([this] { acceptOn(ListenFd, false); });
  if (TcpListenFd >= 0)
    TcpAcceptThread = std::thread([this] { acceptOn(TcpListenFd, true); });
  if (Opts.CompactIntervalMs > 0 || Opts.RetainSecs > 0)
    MaintThread = std::thread([this] { maintenanceLoop(); });
  Started = true;
  return true;
}

bool Daemon::drain(uint64_t TimeoutMs) {
  if (!Started || Stopping.load())
    return true;
  Draining.store(true);
  // Stop accepting immediately: shut the listeners down and join the
  // accept loops. Connections already admitted keep their sessions.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (TcpListenFd >= 0)
    ::shutdown(TcpListenFd, SHUT_RDWR);
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (TcpAcceptThread.joinable())
    TcpAcceptThread.join();
  // In-flight sessions finish on their own: jobs run to completion on
  // the pool, results land in the journal/result store, and the
  // blocking Profile/Done sends flush — the byte-identity contract
  // holds right through shutdown. A stalled client is bounded by its
  // read timeout; past the deadline the caller's stop() force-yanks.
  const uint64_t Deadline = nowMs() + TimeoutMs;
  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(SessionsMu);
      reapLocked();
      if (Sessions.empty())
        return true;
    }
    if (nowMs() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void Daemon::stop() {
  if (!Started || Stopping.exchange(true))
    return;
  // Unblock the accept loops; accept() fails once the fd is shut down.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (TcpListenFd >= 0)
    ::shutdown(TcpListenFd, SHUT_RDWR);
  if (MetricsFd >= 0)
    ::shutdown(MetricsFd, SHUT_RDWR);
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (TcpAcceptThread.joinable())
    TcpAcceptThread.join();
  if (MetricsThread.joinable())
    MetricsThread.join();
  MaintCv.notify_all();
  if (MaintThread.joinable())
    MaintThread.join();
  // Wake resume waiters blocked on an unfinished replay.
  RetainedCv.notify_all();
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    // Yank every in-flight session's socket out from under it: blocked
    // reads/writes fail, the session thread runs to its end, joins here.
    for (std::unique_ptr<Session> &S : Sessions)
      if (S->Fd >= 0)
        ::shutdown(S->Fd, SHUT_RDWR);
    for (std::unique_ptr<Session> &S : Sessions) {
      if (S->T.joinable())
        S->T.join();
      if (S->Fd >= 0)
        ::close(S->Fd);
    }
    Sessions.clear();
  }
  ::close(ListenFd);
  ListenFd = -1;
  if (TcpListenFd >= 0) {
    ::close(TcpListenFd);
    TcpListenFd = -1;
  }
  if (MetricsFd >= 0) {
    ::close(MetricsFd);
    MetricsFd = -1;
  }
  Wal.close();
  ::unlink(Opts.SocketPath.c_str());
}

bool Daemon::reject(int Fd, const char *Code, const std::string &Message) {
  // Counted BEFORE the Error frame goes out, for the same reason
  // completions are: a client that has read the rejection must already
  // see it in stats() and on /metrics.
  StatRejected.fetch_add(1);
  obs::addCount(obs::Counter::SessionsRejected);
  obs::flushThisThread();
  sendFrame(Fd, FrameType::Error, encodeError(Code, Message));
  return false;
}

void Daemon::reapLocked() {
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    if ((*It)->Finished.load()) {
      (*It)->T.join();
      if ((*It)->Fd >= 0)
        ::close((*It)->Fd);
      It = Sessions.erase(It);
    } else {
      ++It;
    }
  }
}

void Daemon::foldSendStats(SendBuffer &Buf) {
  uint64_t Dropped = Buf.takeDroppedDeltas();
  StatDeltasDropped.fetch_add(Dropped);
  if (Dropped > 0)
    obs::addCount(obs::Counter::DeltasDropped, Dropped);
  if (Buf.takeSlowDisconnect())
    StatSlowDisconnects.fetch_add(1);
  fetchMax(StatSendBufHighWater, Buf.highWater());
}

void Daemon::evictLocked(Retained &RR) {
  RetainedBytes -= RR.Bytes;
  RR.Bytes = 0;
  RR.DeltaPayloads.clear();
  RR.DeltaPayloads.shrink_to_fit();
  RR.ProfileJson.clear();
  RR.ProfileJson.shrink_to_fit();
  RR.DonePayload.clear();
  RR.Evicted = true; // The tombstone stays: resume gets ResultEvicted.
  StatResultsEvicted.fetch_add(1);
  obs::addCount(obs::Counter::ResultsEvicted);
}

void Daemon::evictExpiredLocked(uint64_t Now) {
  if (Opts.RetainSecs == 0)
    return;
  const uint64_t TtlMs = Opts.RetainSecs * 1000;
  for (auto &KV : RetainedResults) {
    Retained &RR = KV.second;
    if (RR.Done && !RR.Evicted && Now >= RR.CompletedAtMs + TtlMs)
      evictLocked(RR);
  }
}

void Daemon::retainResult(uint64_t Id, uint64_t NumRuns,
                          std::vector<std::string> Deltas, std::string Doc,
                          std::string DonePayload) {
  uint64_t Bytes = Doc.size() + DonePayload.size();
  for (const std::string &D : Deltas)
    Bytes += D.size();
  {
    std::lock_guard<std::mutex> Lock(RetainedMu);
    Retained &RR = RetainedResults[Id];
    RR.Runs = NumRuns;
    RR.DeltaPayloads = std::move(Deltas);
    RR.ProfileJson = std::move(Doc);
    RR.DonePayload = std::move(DonePayload);
    RR.Bytes = Bytes;
    RR.Seq = ++RetainSeq;
    RR.CompletedAtMs = nowMs();
    RR.Done = true;
    RetainedBytes += Bytes;
    // Byte budget: evict oldest-completed results first (completion
    // ordinal, not the injected clock, so the order is deterministic).
    // The entry just stored is evictable too — a result bigger than
    // the whole budget is never retained, by design.
    while (Opts.RetainBytes != 0 && RetainedBytes > Opts.RetainBytes) {
      Retained *Oldest = nullptr;
      for (auto &KV : RetainedResults) {
        Retained &C = KV.second;
        if (C.Done && !C.Evicted && (!Oldest || C.Seq < Oldest->Seq))
          Oldest = &C;
      }
      if (!Oldest)
        break;
      evictLocked(*Oldest);
    }
  }
  obs::flushThisThread();
  RetainedCv.notify_all();
}

void Daemon::maybeCompact(bool Force) {
  if (!Wal.isOpen())
    return;
  if (!Force &&
      (Opts.CompactBytes == 0 || Wal.sizeBytes() <= Opts.CompactBytes))
    return;
  std::string Err;
  if (Wal.compact(Err))
    StatCompactions.fetch_add(1);
}

void Daemon::maintenanceLoop() {
  std::unique_lock<std::mutex> Lock(MaintMu);
  uint64_t LastCompact = nowMs();
  while (!Stopping.load()) {
    // A short real-time tick: TTL expiry reads the (possibly injected)
    // clock each round, so tests that advance a fake clock see the
    // eviction within one tick.
    MaintCv.wait_for(Lock, std::chrono::milliseconds(50),
                     [&] { return Stopping.load(); });
    if (Stopping.load())
      return;
    uint64_t Now = nowMs();
    if (Opts.RetainSecs > 0) {
      {
        std::lock_guard<std::mutex> RLock(RetainedMu);
        evictExpiredLocked(Now);
      }
      obs::flushThisThread();
    }
    if (Opts.CompactIntervalMs > 0 &&
        Now - LastCompact >= Opts.CompactIntervalMs) {
      LastCompact = Now;
      maybeCompact(/*Force=*/true);
    }
  }
}

void Daemon::acceptOn(int Fd, bool Tcp) {
  for (;;) {
    int C = ::accept(Fd, nullptr, nullptr);
    if (C < 0) {
      if (errno == EINTR)
        continue;
      return; // Shut down (or the listen socket died) — either way out.
    }
    if (Stopping.load()) {
      ::close(C);
      return;
    }
    std::lock_guard<std::mutex> Lock(SessionsMu);
    reapLocked();
    if (Opts.MaxSessions != 0 && Sessions.size() >= Opts.MaxSessions) {
      // Rejected before a byte is read: admission is by connection, so
      // an overloaded daemon sheds load without parsing anything.
      reject(C, errc::TooManySessions,
             "session limit " + std::to_string(Opts.MaxSessions) +
                 " reached");
      ::close(C);
      continue;
    }
    Sessions.push_back(std::make_unique<Session>());
    Session &S = *Sessions.back();
    S.Fd = C;
    S.Tcp = Tcp;
    S.T = std::thread([this, &S] { handleSession(S); });
  }
}

std::string Daemon::applyQuotas(JobRequest &R) const {
  const SessionQuota &Q = Opts.Quota;
  const uint64_t NumRuns = prof::runCount(R.Seeds, R.Runs);
  if (Q.MaxRuns != 0 && NumRuns > Q.MaxRuns)
    return "job wants " + std::to_string(NumRuns) + " runs, quota is " +
           std::to_string(Q.MaxRuns);
  if (Q.MaxSourceBytes != 0 && R.Source.size() > Q.MaxSourceBytes)
    return "source is " + std::to_string(R.Source.size()) +
           " bytes, quota is " + std::to_string(Q.MaxSourceBytes);
  if (Q.MaxHeapBytes != 0) {
    if (R.MaxHeapBytes > Q.MaxHeapBytes)
      return "max-heap-bytes " + std::to_string(R.MaxHeapBytes) +
             " exceeds quota " + std::to_string(Q.MaxHeapBytes);
    if (R.MaxHeapBytes == 0) // Unlimited request: clamp to the cap.
      R.MaxHeapBytes = Q.MaxHeapBytes;
  }
  if (Q.MaxRunDeadlineMs != 0) {
    if (R.RunDeadlineMs > Q.MaxRunDeadlineMs)
      return "deadline-ms " + std::to_string(R.RunDeadlineMs) +
             " exceeds quota " + std::to_string(Q.MaxRunDeadlineMs);
    if (R.RunDeadlineMs == 0)
      R.RunDeadlineMs = Q.MaxRunDeadlineMs;
  }
  if (Q.MaxAttempts != 0 &&
      static_cast<uint64_t>(R.MaxAttempts) > Q.MaxAttempts)
    return "retry attempts " + std::to_string(R.MaxAttempts) +
           " exceed quota " + std::to_string(Q.MaxAttempts);
  return std::string();
}

std::shared_ptr<const prof::CompiledProgram>
Daemon::admit(JobRequest &R, resilience::FaultPlan &Faults,
              const char *&Code, std::string &Msg) {
  Code = errc::BadRequest;
  std::string Err;
  if (!resilience::FaultPlan::parse(R.InjectSpec, Faults, Err)) {
    Msg = "invalid inject spec: " + Err;
    return nullptr;
  }
  // The budget machinery as admission control.
  Msg = applyQuotas(R);
  if (!Msg.empty()) {
    Code = errc::QuotaExceeded;
    return nullptr;
  }
  const std::string *Source = &R.Source;
  if (!R.Corpus.empty()) {
    const programs::CorpusProgram *P = findCorpusProgram(R.Corpus);
    if (!P) {
      Msg = "unknown corpus program '" + R.Corpus + "'";
      return nullptr;
    }
    Source = &P->Source;
  }
  prof::CompileCache::Result CR = Cache.get(*Source);
  if (!CR.ok()) {
    // Errors are answered, not hoarded: purge resolved failures so a
    // stream of broken submissions cannot pin memory forever (a fixed
    // resubmission has different content and misses anyway).
    Code = errc::CompileError;
    Msg = CR.Error;
    Cache.invalidateErrors();
    return nullptr;
  }
  if (CR.Program->entryMethod(R.EntryClass, R.EntryMethod) < 0) {
    Msg = "no static no-arg method " + R.EntryClass + "." + R.EntryMethod;
    return nullptr;
  }
  return CR.Program;
}

void Daemon::handleSession(Session &S) {
  const int Fd = S.Fd;
  setRecvTimeout(Fd, Opts.ReadTimeoutMs);
  if (Opts.SessionSendBufBytes > 0)
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Opts.SessionSendBufBytes,
                 sizeof(Opts.SessionSendBufBytes));

  // --- Read and validate the job -------------------------------------
  bool Ok = [&]() -> bool {
    Frame F;
    switch (readFrame(Fd, F, Opts.MaxFrameBytes)) {
    case ReadStatus::Ok:
      break;
    case ReadStatus::Eof:
      return false; // Connected and left; nothing to answer.
    case ReadStatus::Truncated:
      return reject(Fd, errc::MalformedFrame, "truncated frame");
    case ReadStatus::BadType:
      return reject(Fd, errc::MalformedFrame, "unknown frame type");
    case ReadStatus::Oversized:
      return reject(Fd, errc::OversizedFrame,
                    "payload exceeds " +
                        std::to_string(Opts.MaxFrameBytes) + " bytes");
    }
    if (F.Type != FrameType::Job)
      return reject(Fd, errc::MalformedFrame,
                    std::string("expected job frame, got ") +
                        frameTypeName(F.Type));

    JobRequest R;
    std::string Err;
    if (!parseJobRequest(F.Payload, R, Err))
      return reject(Fd, errc::BadRequest, Err);

    // --- Auth: TCP jobs must present the shared token ---------------
    if (S.Tcp && !constantTimeEq(R.Auth, AuthToken)) {
      StatAuthFailures.fetch_add(1);
      obs::addCount(obs::Counter::AuthFailures);
      return reject(Fd, errc::AuthFailed,
                    R.Auth.empty() ? "missing auth token"
                                   : "bad auth token");
    }

    SendBuffer Buf(Fd, Opts.MaxSendBufferBytes, Opts.SlowClient);

    // --- Resume: re-stream a journaled session ----------------------
    if (R.Resume != 0) {
      bool Served = serveResume(Buf, R.Resume, R.FromDelta);
      foldSendStats(Buf);
      return Served;
    }

    // --- Quotas, then the shared content-keyed compile -------------
    resilience::FaultPlan Faults;
    const char *Code = nullptr;
    std::shared_ptr<const prof::CompiledProgram> CP =
        admit(R, Faults, Code, Err);
    if (!CP)
      return reject(Fd, Code, Err);

    // --- Accepted: journal, then build the session ------------------
    uint64_t Id = NextSessionId.fetch_add(1);
    if (Wal.isOpen()) {
      // Journaled post-quota and with the auth token stripped: replay
      // re-runs exactly what was admitted, and no secret hits disk.
      JobRequest Logged = R;
      Logged.Auth.clear();
      Wal.appendAccepted(Id, encodeJobRequest(Logged));
      std::lock_guard<std::mutex> Lock(RetainedMu);
      RetainedResults.emplace(Id, Retained());
    }
    StatAccepted.fetch_add(1);
    obs::addCount(obs::Counter::SessionsAccepted);
    obs::flushThisThread();

    AcceptedMsg A;
    A.Session = Id;
    A.Runs = prof::runCount(R.Seeds, R.Runs);
    // A client gone mid-stream only mutes the stream: the session
    // still runs to completion on the shared pool (its work is
    // already queued; other sessions are unaffected) — and, when
    // journaled, its results are retained for a later resume.
    Buf.send(FrameType::Accepted, encodeAccepted(A));

    runCompiled(*CP, R, Faults, Id, &Buf);
    foldSendStats(Buf);
    return true;
  }();
  (void)Ok;

  // Publish this session's counters before the socket closes, so a
  // scrape racing the client's next action already sees them.
  obs::flushThisThread();
  ::shutdown(Fd, SHUT_RDWR);
  S.Finished.store(true); // reapLocked() joins and closes.
}

void Daemon::runCompiled(const prof::CompiledProgram &CP,
                         const JobRequest &R,
                         const resilience::FaultPlan &Faults, uint64_t Id,
                         SendBuffer *Buf) {
  prof::SessionOptions SO;
  SO.Seeds = R.Seeds;
  SO.Runs = R.Runs;
  SO.Input = R.Input;
  SO.Policy = R.Policy;
  SO.MaxAttempts = R.MaxAttempts;
  SO.Faults = Faults;
  SO.Run.MaxHeapBytes = R.MaxHeapBytes;
  SO.Run.RunDeadlineMs = R.RunDeadlineMs;

  const std::vector<vm::IoChannels> RunInputs =
      prof::runInputs(R.Seeds, R.Runs, R.Input);
  const uint64_t NumRuns = RunInputs.size();

  const bool Retain = Wal.isOpen();
  std::vector<std::string> RetainedDeltas;
  uint64_t Streamed = 0;

  parallel::SweepEngine Engine(CP, SO);
  int64_t LastReps = 0;
  // Deltas stream from whichever thread advances the merge — a pool
  // worker or this thread's final drain — serialized by the merge
  // lock, strictly in run-index order. Everything the lambda touches
  // is safe to read after finishEnqueued(): the merge lock orders
  // every observer call before the final drain's release. Under the
  // same lock the engine's accumulated tree/profiles are stable, which
  // is what lets every delta refresh the fitted curves per merge.
  Engine.setRunObserver([&](const parallel::RunDelta &D) {
    RunDeltaMsg M;
    M.Run = D.Run;
    M.Index = D.Index;
    M.Total = D.BatchRuns;
    M.Status = vm::runStatusName(D.Status);
    M.Budget = D.Budget;
    M.Attempts = D.Attempts;
    M.Quarantined = D.Quarantined;
    M.MergedRuns = D.MergedRuns;
    M.TreeRepetitions = D.TreeRepetitions;
    M.NewRepetitions = D.TreeRepetitions - LastReps;
    LastReps = D.TreeRepetitions;
    for (const prof::AlgorithmProfile &P : Engine.buildProfiles()) {
      const prof::AlgorithmProfile::InputSeries *PS = P.primarySeries();
      if (!PS || !PS->Fit.Valid)
        continue;
      FitEstimate FE;
      FE.Label = P.Label;
      FE.Formula = PS->Fit.formula();
      M.Fits.push_back(std::move(FE));
    }
    // One encoding serves both the retained copy and the live send.
    std::string Payload = encodeRunDelta(M);
    if (Buf && !Buf->gone() && Buf->sendDelta(Payload))
      ++Streamed;
    if (Retain)
      RetainedDeltas.push_back(std::move(Payload));
  });

  parallel::SweepResult Sweep;
  Engine.enqueueSweep(Pool, R.EntryClass, R.EntryMethod, RunInputs, &Sweep);
  Engine.waitEnqueued();
  Engine.finishEnqueued();

  // All deltas are decided now. Publish backpressure stats BEFORE the
  // blocking Profile send: a slow client that has not read a byte can
  // observe deltas_dropped in stats() / on /metrics while the daemon
  // is still waiting to hand it the final document.
  if (Buf)
    foldSendStats(*Buf);

  // --- Final profile: the serial CLI's exact bytes ------------------
  std::vector<prof::AlgorithmProfile> Profiles = Engine.buildProfiles();
  report::ReportInput RI{&Engine.tree(), &Engine.inputs(), &Profiles,
                         &Sweep.Failures};
  std::string Doc = report::Registry::builtin().find("json")->render(RI);

  DoneMsg DM;
  DM.Runs = NumRuns;
  DM.MergedRuns = static_cast<uint64_t>(Sweep.MergedRuns);
  DM.DegradedRuns = Sweep.Failures.size();
  const std::string DonePayload = encodeDone(DM);

  if (!Buf) {
    // Journal replay: no client attached; the retained results below
    // are the whole point. Counted BEFORE those results land so a
    // resumer unblocked by the notify already observes jobs_replayed
    // in stats() and on /metrics.
    StatJobsReplayed.fetch_add(1);
    obs::addCount(obs::Counter::JobsReplayed);
    obs::flushThisThread();
  }

  if (Retain) {
    // Results land in the store and the WAL gets its completion record
    // BEFORE any client observes Done: a resume issued after reading
    // Done always finds the session, and a crash after this point
    // re-streams instead of re-running. retainResult also applies the
    // byte-budget eviction policy.
    retainResult(Id, NumRuns, std::move(RetainedDeltas), Doc, DonePayload);
    Wal.appendCompleted(Id);
    // The completion record may have pushed the WAL past its size
    // threshold; compaction drops every completed A/C pair.
    maybeCompact(/*Force=*/false);
  }

  if (Buf)
    finishStream(*Buf, Doc, DonePayload, Streamed);
}

void Daemon::finishStream(SendBuffer &Buf, const std::string &Doc,
                          const std::string &DonePayload,
                          uint64_t Streamed) {
  bool ClientGone = Buf.gone();
  if (!ClientGone)
    ClientGone = !Buf.send(FrameType::Profile, Doc);
  uint64_t Bytes = Buf.bytesQueued();
  // Completion is counted BEFORE the Done frame goes out: a client
  // that has read Done must already observe this session in stats()
  // and on /metrics (tests poll exactly that edge). The Done frame's
  // wire size is included up front for the same reason; if the send
  // then fails the overcount is 5+|payload| bytes to a peer that
  // vanished mid-stream — noise, not accounting.
  if (!ClientGone)
    Bytes += encodeFrame(FrameType::Done, DonePayload).size();
  StatCompleted.fetch_add(1);
  StatBytes.fetch_add(Bytes);
  StatDeltasStreamed.fetch_add(Streamed);
  obs::addCount(obs::Counter::SessionsCompleted);
  obs::addCount(obs::Counter::BytesStreamed, Bytes);
  if (Streamed > 0)
    obs::addCount(obs::Counter::DeltasStreamed, Streamed);
  obs::flushThisThread();
  if (!ClientGone)
    Buf.send(FrameType::Done, DonePayload);
}

void Daemon::replayJob(Session &S) {
  auto Fail = [&](const char *Code, const std::string &Msg) {
    {
      std::lock_guard<std::mutex> Lock(RetainedMu);
      Retained &RR = RetainedResults[S.ReplayId];
      RR.FailCode = Code;
      RR.FailMessage = Msg;
    }
    RetainedCv.notify_all();
    Wal.appendCompleted(S.ReplayId);
    maybeCompact(/*Force=*/false);
  };

  [&] {
    JobRequest R;
    std::string Err;
    if (!parseJobRequest(S.ReplayPayload, R, Err) || R.Resume != 0)
      return Fail(errc::BadRequest, "unreplayable journal record: " + Err);
    resilience::FaultPlan Faults;
    const char *Code = nullptr;
    std::shared_ptr<const prof::CompiledProgram> CP =
        admit(R, Faults, Code, Err);
    if (!CP)
      return Fail(Code, Err);
    runCompiled(*CP, R, Faults, S.ReplayId, nullptr);
  }();

  obs::flushThisThread();
  S.Finished.store(true);
}

bool Daemon::serveResume(SendBuffer &Buf, uint64_t Id, uint64_t FromDelta) {
  const int Fd = Buf.fd();
  if (!Wal.isOpen())
    return reject(Fd, errc::UnknownSession,
                  "resume needs a daemon with --journal");
  Retained Copy;
  {
    std::unique_lock<std::mutex> Lock(RetainedMu);
    auto It = RetainedResults.find(Id);
    if (It == RetainedResults.end()) {
      Lock.unlock();
      return reject(Fd, errc::UnknownSession,
                    "no journaled session " + std::to_string(Id));
    }
    // The session may still be replaying (or running live): block
    // until its results land. Daemon shutdown wakes us empty-handed.
    RetainedCv.wait(Lock, [&] {
      return It->second.Done || It->second.FailCode || Stopping.load();
    });
    if (!It->second.Done && !It->second.FailCode)
      return false; // Stopping.
    if (It->second.FailCode) {
      const char *Code = It->second.FailCode;
      std::string Msg = It->second.FailMessage;
      Lock.unlock();
      return reject(Fd, Code, Msg);
    }
    // TTL checked on access too, not just by the maintenance tick: a
    // resume can never observe a result the clock says is dead.
    if (!It->second.Evicted && Opts.RetainSecs != 0 &&
        nowMs() >= It->second.CompletedAtMs + Opts.RetainSecs * 1000)
      evictLocked(It->second);
    if (It->second.Evicted) {
      Lock.unlock();
      obs::flushThisThread();
      return reject(Fd, errc::ResultEvicted,
                    "session " + std::to_string(Id) +
                        " results were evicted (retention bounds)");
    }
    Copy = It->second; // Stream outside the lock.
  }

  if (FromDelta > Copy.DeltaPayloads.size())
    return reject(Fd, errc::BadRequest,
                  "from-delta " + std::to_string(FromDelta) +
                      " exceeds the " +
                      std::to_string(Copy.DeltaPayloads.size()) +
                      " retained deltas of session " + std::to_string(Id));

  StatAccepted.fetch_add(1);
  obs::addCount(obs::Counter::SessionsAccepted);
  obs::flushThisThread();

  AcceptedMsg A;
  A.Session = Id;
  A.Runs = Copy.Runs;
  A.Resumed = true;
  A.ResumedFrom = FromDelta;
  Buf.send(FrameType::Accepted, encodeAccepted(A));

  // The cursor: the client declared it already observed the first
  // FromDelta deltas, so re-stream k..n only — no delta twice.
  uint64_t Streamed = 0;
  for (size_t I = FromDelta; I < Copy.DeltaPayloads.size(); ++I) {
    if (Buf.gone())
      break;
    if (Buf.sendDelta(Copy.DeltaPayloads[I]))
      ++Streamed;
  }

  finishStream(Buf, Copy.ProfileJson, Copy.DonePayload, Streamed);
  return true;
}

//===----------------------------------------------------------------------===//
// /metrics
//===----------------------------------------------------------------------===//

void Daemon::metricsLoop() {
  for (;;) {
    int C = ::accept(MetricsFd, nullptr, nullptr);
    if (C < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (Stopping.load()) {
      ::close(C);
      return;
    }
    setRecvTimeout(C, 2000);
    // Enough of HTTP for a Prometheus scrape: read the request head,
    // match the request line, answer, close.
    std::string Req;
    char Buf[1024];
    while (Req.find("\r\n") == std::string::npos && Req.size() < 8192) {
      ssize_t R = io::retryOn([&] { return ::recv(C, Buf, sizeof(Buf), 0); });
      if (R <= 0)
        break;
      Req.append(Buf, static_cast<size_t>(R));
    }
    auto Matches = [&](const char *Path) {
      std::string G = std::string("GET ") + Path;
      return Req.rfind(G + " ", 0) == 0 || Req.rfind(G + "\r", 0) == 0;
    };
    std::string Status = "404 Not Found", Body = "not found\n";
    if (Matches("/metrics")) {
      Status = "200 OK";
      Body = obs::prometheusText(obs::snapshot());
    } else if (Matches("/healthz")) {
      // Liveness: the process answers, full stop.
      Status = "200 OK";
      Body = "ok\n";
      StatHealthChecks.fetch_add(1);
      obs::addCount(obs::Counter::HealthChecks);
      obs::flushThisThread();
    } else if (Matches("/readyz")) {
      // Readiness: accepting new sessions AND durability intact — a
      // draining daemon or one whose journal append failed must fall
      // out of its load balancer before clients notice.
      bool Ready = !Stopping.load() && !Draining.load() &&
                   (Opts.JournalPath.empty() ||
                    (Wal.isOpen() && !Wal.failed()));
      Status = Ready ? "200 OK" : "503 Service Unavailable";
      Body = Ready ? "ok\n" : "not ready\n";
      StatHealthChecks.fetch_add(1);
      obs::addCount(obs::Counter::HealthChecks);
      obs::flushThisThread();
    }
    std::string Resp = "HTTP/1.1 " + Status +
                       "\r\nContent-Type: text/plain; version=0.0.4"
                       "\r\nContent-Length: " +
                       std::to_string(Body.size()) +
                       "\r\nConnection: close\r\n\r\n" + Body;
    // io::writeFull retries EINTR and loops over short writes — a
    // signal mid-scrape must not truncate the response.
    io::writeFull(C, Resp.data(), Resp.size());
    ::close(C);
  }
}
