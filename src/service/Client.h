//===- service/Client.h - Typed algoprofd client ----------------*- C++-*-===//
///
/// \file
/// The typed client API for the profiling daemon. A Client names an
/// endpoint — Unix socket (default transport) or TCP with an auth
/// token — and submit() opens one session per job:
///
///   Client C = Client::unixSocket("/run/algoprofd.sock");
///   JobSpec Job;
///   Job.Corpus = "seeded_insertion_sort_random";
///   Job.Seeds = {4, 8, 12};
///   Session S = C.submit(Job);
///   S.onDelta([](const RunDeltaMsg &D) { /* live progress */ });
///   TypedResult R = S.wait();
///   if (R.Ok) use(R.ProfileJson);
///   else diagnose(R.Error);
///
/// wait() drives the reply stream to its end and returns structured
/// results: the acceptance, every RunDelta (with tree and fitted-curve
/// estimates), the final profile JSON — byte-identical to
/// the serial CLI — and either a Done summary or a ServiceError that
/// distinguishes daemon rejections (Code = errc::*) from transport
/// failures (Transport = true). Used by tools/algoprof_client and the
/// service tests; a non-C++ client only needs service/Protocol.h.
///
/// run() layers a retry driver over submit()/wait(): per-operation
/// socket deadlines, exponential backoff with seeded jitter, and
/// automatic cursor resume. Once a job is accepted, the driver knows
/// the session id and how many deltas it has observed; after a
/// transport fault it reconnects with `resume=<sid> from-delta=<k>`,
/// so the merged result holds every delta exactly once and the
/// profile stays byte-identical no matter how often the link broke.
/// Daemon rejections (including errc::ResultEvicted) are never
/// retried — only transport faults are.
///
/// sendRaw() remains as the single raw-bytes escape hatch so tests can
/// exercise malformed/truncated frames the typed API cannot produce.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_SERVICE_CLIENT_H
#define ALGOPROF_SERVICE_CLIENT_H

#include "service/Protocol.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace algoprof {
namespace service {

/// What to profile and how; the typed client's job description.
using JobSpec = JobRequest;

/// Why a session produced no profile. Exactly one of the two flavors:
/// a daemon rejection carries the wire errc::* code, a transport
/// failure (connect refused, dropped connection, malformed reply) sets
/// Transport with Code "transport".
struct ServiceError {
  std::string Code;
  std::string Message;
  bool Transport = false;

  bool any() const { return !Code.empty(); }
};

/// Everything one session produced, in arrival order.
struct TypedResult {
  /// The full happy path: accepted, profile delivered, stream closed
  /// cleanly with Done. When false, Error says why.
  bool Ok = false;
  bool Accepted = false;
  AcceptedMsg Acceptance;
  std::vector<RunDeltaMsg> Deltas;
  std::string ProfileJson;
  bool HaveProfile = false;
  DoneMsg Summary;
  ServiceError Error;
  /// Transport attempts beyond the first that Client::run() needed
  /// (always 0 from Session::wait() directly).
  unsigned TransportRetries = 0;
};

/// How Client::run() rides out transport faults. Retries apply to
/// transport failures only (connect refused, dropped or timed-out
/// connection); a daemon rejection is definitive and returned as-is.
struct RetryPolicy {
  /// Extra attempts after the first (0 = behave like submit/wait).
  unsigned ConnectRetries = 0;
  /// Per-operation socket deadline (SO_RCVTIMEO/SO_SNDTIMEO), so a
  /// stalled daemon surfaces as a transport fault instead of a hang.
  /// 0 = no deadline.
  uint64_t TimeoutMs = 0;
  /// Exponential backoff between attempts: initial delay, doubling,
  /// capped. Jitter (seeded, deterministic for tests) spreads
  /// reconnect storms: the actual delay is in [delay/2, delay].
  uint64_t BackoffInitialMs = 100;
  uint64_t BackoffMaxMs = 2000;
  uint64_t JitterSeed = 0x9e3779b97f4a7c15ull;
  /// Test hook: replaces the real sleep between attempts.
  std::function<void(uint64_t)> SleepMs;
};

/// One submitted job's reply stream. Move-only; obtained from
/// Client::submit(). Call wait() exactly once to consume the stream.
class Session {
public:
  Session(Session &&O) noexcept;
  Session &operator=(Session &&O) noexcept;
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Installs a live-progress callback, invoked for every RunDelta as
  /// wait() reads it (before it is appended to TypedResult::Deltas).
  /// Returns *this for chaining; call before wait().
  Session &onDelta(std::function<void(const RunDeltaMsg &)> Cb);

  /// Drives the stream to its end and returns the structured result.
  TypedResult wait();

private:
  friend class Client;
  Session() = default;

  int Fd = -1;
  /// Non-empty: submit failed. With Fd < 0 nothing was connected;
  /// otherwise the job send failed and wait() still reads any reply.
  std::string SubmitError;
  std::function<void(const RunDeltaMsg &)> Delta;
};

/// A daemon endpoint. Cheap to copy; each submit() opens a fresh
/// connection (the protocol is one job per connection).
class Client {
public:
  /// The default transport: a Unix-domain socket, access gated by
  /// filesystem permissions (no token needed).
  static Client unixSocket(std::string Path);

  /// TCP with the daemon's shared auth token. The token is attached to
  /// every submitted job (JobSpec::Auth overrides when set).
  static Client tcp(std::string Host, uint16_t Port,
                    std::string AuthToken = std::string());

  /// Sends one Job frame and returns the session to consume its reply
  /// stream. Never throws: connect failures surface from wait().
  Session submit(const JobSpec &Spec) const;

  /// Runs \p Spec to completion under \p Policy, retrying transport
  /// faults with backoff and resuming the accepted session at the
  /// delta cursor so no delta is observed twice. \p OnDelta (optional)
  /// fires once per delta across all attempts. The returned Deltas
  /// vector is the merged, duplicate-free stream; TransportRetries
  /// counts the reconnects it took.
  TypedResult run(const JobSpec &Spec, const RetryPolicy &Policy,
                  std::function<void(const RunDeltaMsg &)> OnDelta =
                      std::function<void(const RunDeltaMsg &)>()) const;

private:
  Client() = default;

  /// submit() with a per-operation socket deadline applied right after
  /// connect (0 = none), so the Job send itself is covered too.
  Session submitTimed(const JobSpec &Spec, uint64_t TimeoutMs) const;

  bool Tcp = false;
  std::string PathOrHost;
  uint16_t Port = 0;
  std::string Token;
};

/// Connects to \p SocketPath and writes \p RawBytes verbatim, then
/// reads one reply frame. A test hook for protocol edge cases
/// (malformed or truncated frames) that the typed API can never
/// produce. Returns false on connect failure. When the daemon
/// answers, \p Reply holds the frame and \p GotReply is true; a silent
/// close leaves GotReply false.
bool sendRaw(const std::string &SocketPath, const std::string &RawBytes,
             Frame &Reply, bool &GotReply, std::string &Err);

} // namespace service
} // namespace algoprof

#endif // ALGOPROF_SERVICE_CLIENT_H
