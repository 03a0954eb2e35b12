//===- service/Client.cpp -------------------------------------------------===//

#include "service/Client.h"

#include "service/Io.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/time.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace algoprof;
using namespace algoprof::service;

namespace {

/// Connects to the daemon's Unix socket; -1 with \p Err on failure.
int connectUnix(const std::string &SocketPath, std::string &Err) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path empty or too long: '" + SocketPath + "'";
    return -1;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = std::string("connect '") + SocketPath +
          "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int connectTcp(const std::string &Host, uint16_t Port, std::string &Err) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Err = "'" + Host + "' is not an IPv4 address";
    return -1;
  }
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = "connect " + Host + ":" + std::to_string(Port) + ": " +
          std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

/// No client-side payload cap: the Profile frame is as large as the
/// profile. The daemon is trusted; a hostile peer is not this layer's
/// threat model.
constexpr size_t MaxReplyPayload = 1u << 28;

void setTransportError(TypedResult &R, const std::string &Msg) {
  R.Error.Code = "transport";
  R.Error.Message = Msg;
  R.Error.Transport = true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(Session &&O) noexcept
    : Fd(O.Fd), SubmitError(std::move(O.SubmitError)),
      Delta(std::move(O.Delta)) {
  O.Fd = -1;
}

Session &Session::operator=(Session &&O) noexcept {
  if (this != &O) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = O.Fd;
    SubmitError = std::move(O.SubmitError);
    Delta = std::move(O.Delta);
    O.Fd = -1;
  }
  return *this;
}

Session::~Session() {
  if (Fd >= 0)
    ::close(Fd);
}

Session &Session::onDelta(std::function<void(const RunDeltaMsg &)> Cb) {
  Delta = std::move(Cb);
  return *this;
}

TypedResult Session::wait() {
  TypedResult R;
  if (Fd < 0) {
    setTransportError(R, SubmitError.empty() ? "session already consumed"
                                             : SubmitError);
    return R;
  }
  bool HaveDone = false, HaveError = false;
  for (;;) {
    Frame F;
    ReadStatus RS = readFrame(Fd, F, MaxReplyPayload);
    if (RS == ReadStatus::Eof) {
      // Clean close: valid after Done or Error, truncated otherwise.
      if (!HaveDone && !HaveError)
        setTransportError(R, SubmitError.empty()
                                 ? "stream ended before done/error"
                                 : SubmitError);
      break;
    }
    if (RS != ReadStatus::Ok) {
      setTransportError(R, SubmitError.empty() ? "broken reply stream"
                                               : SubmitError);
      break;
    }
    switch (F.Type) {
    case FrameType::Accepted:
      if (!parseAccepted(F.Payload, R.Acceptance)) {
        setTransportError(R, "bad accepted payload");
        break;
      }
      R.Accepted = true;
      break;
    case FrameType::RunDelta: {
      RunDeltaMsg M;
      if (!parseRunDelta(F.Payload, M)) {
        setTransportError(R, "bad run-delta payload");
        break;
      }
      if (Delta)
        Delta(M);
      R.Deltas.push_back(std::move(M));
      break;
    }
    case FrameType::Profile:
      R.ProfileJson = std::move(F.Payload);
      R.HaveProfile = true;
      break;
    case FrameType::Done:
      if (!parseDone(F.Payload, R.Summary)) {
        setTransportError(R, "bad done payload");
        break;
      }
      HaveDone = true;
      break;
    case FrameType::Error: {
      ErrorMsg E;
      if (!parseError(F.Payload, E)) {
        setTransportError(R, "bad error payload");
        break;
      }
      R.Error.Code = E.Code;
      R.Error.Message = E.Message;
      HaveError = true;
      break;
    }
    case FrameType::Job:
      setTransportError(R, "daemon sent a job frame");
      break;
    }
    if (R.Error.Transport || HaveDone || HaveError)
      break;
  }
  ::close(Fd);
  Fd = -1;
  R.Ok = R.Accepted && R.HaveProfile && HaveDone && !R.Error.any();
  return R;
}

//===----------------------------------------------------------------------===//
// Client
//===----------------------------------------------------------------------===//

Client Client::unixSocket(std::string Path) {
  Client C;
  C.Tcp = false;
  C.PathOrHost = std::move(Path);
  return C;
}

Client Client::tcp(std::string Host, uint16_t Port, std::string AuthToken) {
  Client C;
  C.Tcp = true;
  C.PathOrHost = std::move(Host);
  C.Port = Port;
  C.Token = std::move(AuthToken);
  return C;
}

Session Client::submit(const JobRequest &Spec) const {
  return submitTimed(Spec, 0);
}

Session Client::submitTimed(const JobRequest &Spec, uint64_t TimeoutMs) const {
  Session S;
  std::string Err;
  S.Fd = Tcp ? connectTcp(PathOrHost, Port, Err)
             : connectUnix(PathOrHost, Err);
  if (S.Fd < 0) {
    S.SubmitError = Err;
    return S;
  }
  if (TimeoutMs > 0) {
    timeval Tv{};
    Tv.tv_sec = static_cast<time_t>(TimeoutMs / 1000);
    Tv.tv_usec = static_cast<suseconds_t>((TimeoutMs % 1000) * 1000);
    ::setsockopt(S.Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    ::setsockopt(S.Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
  }
  JobRequest Job = Spec;
  if (Tcp && Job.Auth.empty())
    Job.Auth = Token;
  // A failed send keeps the socket: a daemon that rejects at accept
  // (session limit) may answer and close before the job is written,
  // and its Error frame is still waiting to be read. The half-close
  // lets a daemon still reading the cut frame answer at once.
  if (!sendFrame(S.Fd, FrameType::Job, encodeJobRequest(Job))) {
    ::shutdown(S.Fd, SHUT_WR);
    S.SubmitError = "connection dropped while sending the job";
  }
  return S;
}

TypedResult
Client::run(const JobRequest &Spec, const RetryPolicy &Policy,
            std::function<void(const RunDeltaMsg &)> OnDelta) const {
  std::mt19937_64 Jitter(Policy.JitterSeed);
  auto Sleep = [&](uint64_t Ms) {
    if (Ms == 0)
      return;
    if (Policy.SleepMs)
      Policy.SleepMs(Ms);
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
  };

  // The resume cursor: the session we were accepted into (or were
  // asked to resume) and how many of its deltas we have observed so
  // far, across every attempt. Deltas stream strictly in order and a
  // resume re-streams from the cursor, so counting them is exact.
  uint64_t Sid = Spec.Resume;
  uint64_t Cursor = Spec.FromDelta;
  std::vector<RunDeltaMsg> All;

  for (unsigned Attempt = 0;; ++Attempt) {
    JobRequest Job = Spec;
    if (Sid != 0) {
      Job.Resume = Sid;
      Job.FromDelta = Cursor;
      Job.Corpus.clear();
      Job.Source.clear();
    }
    Session S = submitTimed(Job, Policy.TimeoutMs);
    S.onDelta([&](const RunDeltaMsg &M) {
      ++Cursor;
      if (OnDelta)
        OnDelta(M);
    });
    TypedResult R = S.wait();
    for (auto &D : R.Deltas)
      All.push_back(std::move(D));
    if (R.Accepted && Sid == 0)
      Sid = R.Acceptance.Session;
    if (R.Ok || !R.Error.Transport || Attempt >= Policy.ConnectRetries) {
      R.Deltas = std::move(All);
      R.TransportRetries = Attempt;
      return R;
    }
    uint64_t Delay = Policy.BackoffInitialMs;
    for (unsigned I = 0; I < Attempt && Delay < Policy.BackoffMaxMs; ++I)
      Delay *= 2;
    if (Delay > Policy.BackoffMaxMs)
      Delay = Policy.BackoffMaxMs;
    if (Delay > 1)
      Delay = Delay / 2 + Jitter() % (Delay - Delay / 2 + 1);
    Sleep(Delay);
  }
}

//===----------------------------------------------------------------------===//
// Raw test hook
//===----------------------------------------------------------------------===//

bool service::sendRaw(const std::string &SocketPath,
                      const std::string &RawBytes, Frame &Reply,
                      bool &GotReply, std::string &Err) {
  GotReply = false;
  int Fd = connectUnix(SocketPath, Err);
  if (Fd < 0)
    return false;
  // A short write here is fine: the daemon may already have rejected
  // and closed, and we still want to read that reply. io::writeFull
  // keeps pushing until the peer is really gone.
  io::writeFull(Fd, RawBytes.data(), RawBytes.size());
  // Half-close so a daemon waiting for more bytes sees EOF now rather
  // than its read timeout — the truncated-frame tests rely on this.
  ::shutdown(Fd, SHUT_WR);
  GotReply = readFrame(Fd, Reply, MaxReplyPayload) == ReadStatus::Ok;
  ::close(Fd);
  return true;
}
