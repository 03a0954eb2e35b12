//===- service/Protocol.h - algoprofd wire protocol -------------*- C++-*-===//
///
/// \file
/// The framing and message codecs shared by the profiling daemon
/// (service/Daemon.h) and its client (service/Client.h). One job per
/// connection:
///
///   client                          daemon
///   ------ Job ------------------->   admission, compile
///   <----- Accepted ---------------   (or Error and close)
///   <----- RunDelta * N -----------   one per completed run, streamed
///                                     strictly in run-index order
///   <----- Profile ----------------   final algoprof-profile/2 JSON,
///                                     byte-identical to the serial CLI
///   <----- Done -------------------   summary, connection closes
///
/// Framing: every message is a 5-byte header — payload length as a
/// 4-byte big-endian integer, then a 1-byte frame type — followed by
/// the payload. Length counts the payload only. The fixed header makes
/// truncation detectable (a reader knows exactly how many bytes are
/// owed) and oversized payloads rejectable before a byte of the body
/// is read.
///
/// Payloads are line-oriented `key=value` text (the Profile frame's
/// payload is the JSON document itself). Text keeps the protocol
/// debuggable with socat and keeps this layer free of any serializer
/// dependency; the length prefix means payload bytes are never
/// scanned for terminators, so program source embeds verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_SERVICE_PROTOCOL_H
#define ALGOPROF_SERVICE_PROTOCOL_H

#include "resilience/Resilience.h"

#include <cstdint>
#include <string>
#include <vector>

namespace algoprof {
namespace service {

/// The wire version: the first line of every Job payload. The daemon
/// speaks this one version and rejects any other line bad-request; the
/// Accepted frame echoes it as a constant `proto=2` line.
extern const char ProtocolVersionV2[]; // "algoprof-wire/2"

enum class FrameType : uint8_t {
  Job = 0x01,      ///< client -> daemon: the profiling request.
  Accepted = 0x10, ///< daemon -> client: admission + compile succeeded.
  RunDelta = 0x11, ///< daemon -> client: one run completed and merged.
  Profile = 0x12,  ///< daemon -> client: final profile JSON.
  Done = 0x13,     ///< daemon -> client: session summary; stream ends.
  Error = 0x14,    ///< daemon -> client: rejection; stream ends.
};

/// Stable lowercase frame name for diagnostics.
const char *frameTypeName(FrameType T);

/// Machine-readable rejection codes carried by Error frames.
/// Kept as strings on the wire so new codes never break old clients.
namespace errc {
inline constexpr char MalformedFrame[] = "malformed-frame";
inline constexpr char OversizedFrame[] = "oversized-frame";
inline constexpr char BadRequest[] = "bad-request";
inline constexpr char CompileError[] = "compile-error";
inline constexpr char TooManySessions[] = "too-many-sessions";
inline constexpr char QuotaExceeded[] = "quota-exceeded";
inline constexpr char AuthFailed[] = "auth-failed";
inline constexpr char UnknownSession[] = "unknown-session";
/// The session existed but its retained results were evicted (byte or
/// TTL bound); a resume can never succeed again. Distinct from
/// UnknownSession so a client knows re-asking is pointless.
inline constexpr char ResultEvicted[] = "result-evicted";
} // namespace errc

struct Frame {
  FrameType Type = FrameType::Job;
  std::string Payload;
};

/// Renders the 5-byte header + payload.
std::string encodeFrame(FrameType Type, const std::string &Payload);

/// Writes one frame to \p Fd (loops over partial writes, SIGPIPE
/// suppressed). Returns false when the peer is gone. On success adds
/// the frame's full wire size to \p BytesOut when non-null.
bool sendFrame(int Fd, FrameType Type, const std::string &Payload,
               uint64_t *BytesOut = nullptr);

enum class ReadStatus {
  Ok,
  Eof,       ///< Clean close before any header byte.
  Truncated, ///< Header or payload cut short (close or read timeout).
  Oversized, ///< Declared length exceeds the caller's cap (body unread).
  BadType,   ///< Unknown frame-type byte.
};

/// Reads one frame. \p MaxPayload bounds the declared length; an
/// oversized frame's body is never read (the connection is useless
/// afterwards — close it). A read timeout on the socket surfaces as
/// Truncated.
ReadStatus readFrame(int Fd, Frame &Out, size_t MaxPayload);

//===----------------------------------------------------------------------===//
// Job request
//===----------------------------------------------------------------------===//

/// A profiling job: what to run and under which session options. The
/// payload mirrors the CLI surface (docs/service.md lists every key);
/// exactly one of Corpus / Source / Resume must be set.
struct JobRequest {
  /// Auth token (`auth=` line). Required on TCP transports; ignored on
  /// the Unix socket, where filesystem permissions gate access.
  std::string Auth;
  /// Non-zero: instead of running anything, re-stream session \p Resume
  /// (deltas + final profile, byte-identical) from the daemon's
  /// journal-backed result store.
  uint64_t Resume = 0;
  /// Resume cursor (`from-delta=`): the number of deltas this client
  /// already observed. The daemon re-streams deltas k..n only, so a
  /// reconnecting client never sees a delta twice. Valid only with
  /// Resume; rejected bad-request when it exceeds the retained count.
  uint64_t FromDelta = 0;
  std::string Corpus; ///< Built-in corpus program name, or
  std::string Source; ///< MiniJ source text.
  std::string EntryClass = "Main";
  std::string EntryMethod = "main";
  std::vector<int64_t> Seeds; ///< One run per seed (wins over Runs).
  int Runs = 1;
  std::vector<int64_t> Input; ///< Input channel for unseeded runs.
  resilience::FailurePolicy Policy = resilience::FailurePolicy::Fail;
  int MaxAttempts = 3;
  uint64_t MaxHeapBytes = 0; ///< 0 = off (subject to daemon quota).
  uint64_t RunDeadlineMs = 0;
  std::string InjectSpec; ///< FaultPlan spec, session-scoped.
};

/// Renders the Job payload: version line, key=value lines, and — for
/// inline source — a `source=<bytes>` line followed by exactly that
/// many raw bytes.
std::string encodeJobRequest(const JobRequest &R);

/// Parses a Job payload. On failure returns false with a message in
/// \p Err (the daemon streams it back under errc::BadRequest).
bool parseJobRequest(const std::string &Payload, JobRequest &Out,
                     std::string &Err);

//===----------------------------------------------------------------------===//
// Streamed responses
//===----------------------------------------------------------------------===//

/// Accepted payload. Every Accepted frame carries a constant `proto=2`
/// line; the parser ignores it.
struct AcceptedMsg {
  uint64_t Session = 0; ///< Daemon-assigned session id.
  uint64_t Runs = 0;    ///< Total runs the stream will cover.
  bool Resumed = false; ///< Stream replays a stored session's results.
  /// Resumed streams echo the request's delta cursor (`resumed-from=`):
  /// how many deltas are being skipped because the client saw them.
  uint64_t ResumedFrom = 0;
};
std::string encodeAccepted(const AcceptedMsg &M);
bool parseAccepted(const std::string &Payload, AcceptedMsg &Out);

/// A refreshed fitted-curve estimate carried by a RunDelta: the
/// fitter re-run over the profile prefix merged so far.
struct FitEstimate {
  std::string Label;   ///< Algorithm label (grouping output).
  std::string Formula; ///< Fitted cost formula, e.g. "0.25*n^2".
};

/// RunDelta payload: one completed (merged or quarantined) run. The
/// tree/fit fields describe the accumulated profile the moment this run
/// merged; they are advisory (a slow client may never see some deltas)
/// — the final Profile frame alone is authoritative.
struct RunDeltaMsg {
  int64_t Run = -1;
  uint64_t Index = 0;
  uint64_t Total = 0;
  std::string Status; ///< "ok" | "trap" | "fuel" | "budget".
  std::string Budget; ///< Tripped budget name, empty when none.
  int Attempts = 1;
  bool Quarantined = false;
  int64_t MergedRuns = 0;
  int64_t TreeRepetitions = 0; ///< Accumulated tree repetitions.
  int64_t NewRepetitions = 0;  ///< Added by this run's merge.
  std::vector<FitEstimate> Fits; ///< One per algorithm with a fit.
};
std::string encodeRunDelta(const RunDeltaMsg &M);
bool parseRunDelta(const std::string &Payload, RunDeltaMsg &Out);

/// Done payload.
struct DoneMsg {
  uint64_t Runs = 0;
  uint64_t MergedRuns = 0;
  uint64_t DegradedRuns = 0;
};
std::string encodeDone(const DoneMsg &M);
bool parseDone(const std::string &Payload, DoneMsg &Out);

/// Error payload.
struct ErrorMsg {
  std::string Code; ///< One of errc::*.
  std::string Message;
};
std::string encodeError(const std::string &Code, const std::string &Message);
bool parseError(const std::string &Payload, ErrorMsg &Out);

} // namespace service
} // namespace algoprof

#endif // ALGOPROF_SERVICE_PROTOCOL_H
