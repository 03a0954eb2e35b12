//===- service/Daemon.h - Streaming profiling-as-a-service ------*- C++-*-===//
///
/// \file
/// algoprofd's engine: a persistent daemon that accepts profiling jobs
/// over a Unix-domain socket — and, when configured, an authenticated
/// TCP listener — and multiplexes any number of concurrent sessions
/// onto ONE shared work-stealing pool. Each accepted session compiles
/// through the shared prof::CompileCache, enqueues its runs via
/// parallel::SweepEngine::enqueueSweep, streams a RunDelta frame as
/// each run merges — strictly in run-index order, carrying run status,
/// incremental repetition-tree counts and refreshed fitted-curve
/// estimates — and finishes with the complete
/// algoprof-profile/2 JSON, byte-identical to what the serial CLI
/// prints for the same program + seeds (the sweep engine's determinism
/// guarantee, now load-bearing for a service).
///
/// Hardening (stage 2):
///  - TCP transport (`DaemonOptions::ListenAddress`) gated by a shared
///    token (`AuthTokenFile`, constant-time compare; errc::AuthFailed).
///    The Unix socket stays the default and needs no token.
///  - Durable queue: with `JournalPath` set, accepted jobs hit an
///    on-disk write-ahead log before running (service/Journal.h) and
///    are replayed after a restart; results are retained in memory so
///    a reconnecting client `resume=<session>`s into the byte-identical
///    stream (determinism makes replay idempotent).
///  - Backpressure: deltas go through a bounded per-session
///    service/SendBuffer.h instead of blocking sends — a slow client
///    sheds advisory deltas (or is disconnected, per SlowClient
///    policy) and can never stall a pool worker; the final Profile and
///    Done frames always block until written, so the authoritative
///    document never degrades.
///
/// Hardening (stage 3):
///  - Delta cursor: `resume=` + `from-delta=k` re-streams only deltas
///    k..n (Accepted echoes `resumed-from=`), so a client that
///    reconnects after seeing k deltas never observes one twice.
///  - Journal compaction: the WAL is rewritten (tmp + fdatasync +
///    rename, crash-safe) keeping only pending records, on a size
///    threshold (CompactBytes) and/or a timer (CompactIntervalMs) —
///    its size stays bounded across any crash/restart loop.
///  - Retained-result eviction: the in-memory replay store is bounded
///    by bytes (RetainBytes, oldest-completed first) and TTL
///    (RetainSecs, injectable clock); an evicted session answers
///    resume with errc::ResultEvicted instead of hanging.
///  - Graceful drain: drain() stops accepting and lets in-flight
///    sessions finish and flush within a deadline (SIGTERM path of
///    algoprofd); stop() remains the forceful teardown.
///  - Liveness/readiness: GET /healthz and /readyz next to /metrics
///    (ready = accepting and the journal is writable).
///
/// Admission control reuses the budget machinery instead of inventing
/// a scheduler: a per-daemon SessionQuota caps runs per session,
/// heap-byte budgets, deadlines, and retry attempts (requests beyond a
/// cap are rejected `quota-exceeded`; unlimited requests are clamped
/// down to the cap), and MaxSessions bounds concurrency (`too-many-
/// sessions`). Faults arm per session through SessionOptions::Faults —
/// nothing is process-global, so one session's injected io failure
/// cannot leak into a neighbor's stream.
///
/// Observability: a minimal HTTP endpoint (`GET /metrics`, bind
/// address configurable; non-loopback requires the auth token file to
/// exist so an exposed daemon is never token-less) serves
/// obs::prometheusText of the live registry — meaningful mid-flight
/// because pool workers and session threads publish through
/// obs::flushThisThread — including sessions_accepted / rejected /
/// completed, bytes_streamed, deltas_streamed, deltas_dropped,
/// jobs_replayed, and auth_failures. See docs/service.md.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_SERVICE_DAEMON_H
#define ALGOPROF_SERVICE_DAEMON_H

#include "core/CompileCache.h"
#include "parallel/JobSystem.h"
#include "service/Journal.h"
#include "service/Protocol.h"
#include "service/SendBuffer.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace algoprof {
namespace service {

/// Per-session admission caps. Zero always means "no cap".
struct SessionQuota {
  uint64_t MaxRuns = 0;        ///< Seeds/runs per job.
  uint64_t MaxSourceBytes = 0; ///< Inline source size.
  /// Heap-byte ceiling per run. A job asking for more is rejected; a
  /// job asking for unlimited (0) is clamped down to the cap, so no
  /// admitted run can out-allocate the daemon.
  uint64_t MaxHeapBytes = 0;
  uint64_t MaxRunDeadlineMs = 0; ///< Same clamp-or-reject rule.
  uint64_t MaxAttempts = 0;      ///< Retry executions per run.
};

struct DaemonOptions {
  std::string SocketPath; ///< Unix-domain socket to listen on.
  /// Optional TCP listener, "host:port" (IPv4; port 0 = ephemeral,
  /// read back via listenPort()). Requires AuthTokenFile — every TCP
  /// job must present the token in its `auth=` line.
  std::string ListenAddress;
  /// File whose first line is the shared auth token (compared in
  /// constant time). Required for TCP and non-loopback /metrics.
  std::string AuthTokenFile;
  /// Write-ahead journal for the durable job queue; empty disables
  /// durability (jobs die with the daemon, resume is rejected).
  std::string JournalPath;
  /// Worker threads of the one shared pool (0 = hardware concurrency).
  unsigned Workers = 0;
  /// Concurrent sessions admitted; further connections are rejected
  /// with errc::TooManySessions. 0 = unlimited.
  size_t MaxSessions = 0;
  /// Largest Job frame payload accepted (errc::OversizedFrame above).
  size_t MaxFrameBytes = 1u << 20;
  /// Receive timeout while reading the Job frame: a client that
  /// connects and stalls mid-frame is dropped as truncated instead of
  /// pinning a session thread forever.
  unsigned ReadTimeoutMs = 5000;
  /// /metrics HTTP port: -1 disables the endpoint, 0 binds an
  /// ephemeral port (read it back via metricsPort()).
  int MetricsPort = -1;
  /// /metrics bind address. Non-loopback requires AuthTokenFile.
  std::string MetricsAddress = "127.0.0.1";
  /// Per-session pending send-buffer cap for RunDelta frames (bytes
  /// beyond what the kernel accepts immediately).
  size_t MaxSendBufferBytes = 1u << 20;
  /// What to do with a client too slow to drain its delta stream.
  SendBuffer::Policy SlowClient = SendBuffer::Policy::DropDeltas;
  /// Test hook: kernel SO_SNDBUF for session sockets (0 = default).
  /// Shrinking it makes backpressure reproducible in tests.
  int SessionSendBufBytes = 0;
  /// Journal compaction size threshold: after a completion record, a
  /// WAL larger than this is rewritten keeping only pending records
  /// (0 = no size-triggered compaction).
  uint64_t CompactBytes = 0;
  /// Periodic compaction interval in milliseconds (0 = none). Either
  /// trigger keeps the WAL bounded by the pending set plus one
  /// threshold's worth of completed churn.
  uint64_t CompactIntervalMs = 0;
  /// Retained-result store byte budget: total bytes of stored delta
  /// payloads + profile documents across sessions. When a completing
  /// session pushes the store past this, the oldest-completed results
  /// are evicted (resume then answers errc::ResultEvicted). 0 = no
  /// byte bound.
  uint64_t RetainBytes = 0;
  /// Retained-result TTL in seconds (0 = no TTL): results older than
  /// this are evicted by the maintenance thread or on access.
  uint64_t RetainSecs = 0;
  /// Injectable monotonic clock in milliseconds, for deterministic
  /// TTL-eviction tests. Defaults to std::chrono::steady_clock.
  std::function<uint64_t()> NowMs;
  SessionQuota Quota;
};

class Daemon {
public:
  /// Exact per-daemon service totals (the obs counters aggregate the
  /// same events process-wide; tests that run several daemons in one
  /// binary assert on these instead).
  struct Stats {
    uint64_t Accepted = 0;
    uint64_t Rejected = 0;
    uint64_t Completed = 0;
    uint64_t BytesStreamed = 0;
    uint64_t DeltasStreamed = 0;
    uint64_t DeltasDropped = 0;
    uint64_t JobsReplayed = 0;
    uint64_t AuthFailures = 0;
    uint64_t SlowDisconnects = 0;
    uint64_t ResultsEvicted = 0; ///< Retained results dropped (bytes/TTL).
    uint64_t Compactions = 0;    ///< Journal rewrites that completed.
    uint64_t HealthChecks = 0;   ///< /healthz + /readyz probes answered.
    /// Peak pending send-buffer occupancy over all sessions so far;
    /// bounded by MaxSendBufferBytes by construction.
    uint64_t SendBufHighWater = 0;
  };

  explicit Daemon(DaemonOptions Opts);
  ~Daemon(); ///< Calls stop().

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds the sockets, loads the journal and re-runs its pending
  /// jobs, and spawns the accept / metrics threads. Returns false with
  /// a description in \p Err (socket path too long, bind failure,
  /// missing token file, ...). Call at most once.
  bool start(std::string &Err);

  /// Stops accepting, shuts down every in-flight session's socket,
  /// joins all threads, and removes the socket file. Idempotent.
  void stop();

  /// Graceful drain: stops accepting new connections immediately, then
  /// waits up to \p TimeoutMs for every in-flight session to finish
  /// naturally — jobs run to completion, control frames flush, results
  /// land in the journal/result store. Returns true when the daemon
  /// drained fully within the deadline (call stop() afterwards either
  /// way; after a full drain it has nothing left to force).
  bool drain(uint64_t TimeoutMs);

  /// The bound /metrics port (0 until start() with MetricsPort >= 0).
  int metricsPort() const { return BoundMetricsPort; }

  /// The bound TCP port (0 unless ListenAddress was set).
  int listenPort() const { return BoundListenPort; }

  Stats stats() const;

  const DaemonOptions &options() const { return Opts; }

private:
  struct Session {
    int Fd = -1; ///< -1 for journal-replay sessions (no socket).
    bool Tcp = false;
    std::thread T;
    std::atomic<bool> Finished{false};
    /// Journal replay: the job to re-run, no client attached.
    uint64_t ReplayId = 0;
    std::string ReplayPayload;
  };

  /// Everything needed to re-stream a journaled session to a resuming
  /// client. Delta payloads are stored as encoded; the final document
  /// is the byte-exact Profile frame payload.
  struct Retained {
    bool Done = false;
    const char *FailCode = nullptr; ///< errc::* when the job cannot run.
    std::string FailMessage;
    uint64_t Runs = 0;
    std::vector<std::string> DeltaPayloads;
    std::string ProfileJson;
    std::string DonePayload;
    /// Eviction bookkeeping: payload bytes this entry holds, the
    /// completion sequence number (eviction order — deterministic even
    /// when a coarse injected clock stamps several completions with the
    /// same time), and the completion timestamp for the TTL bound.
    uint64_t Bytes = 0;
    uint64_t Seq = 0;
    uint64_t CompletedAtMs = 0;
    /// Tombstone: payloads were evicted; resume answers
    /// errc::ResultEvicted (never hangs, never says unknown-session).
    bool Evicted = false;
  };

  void acceptOn(int Fd, bool Tcp);
  void metricsLoop();
  void handleSession(Session &S);
  void replayJob(Session &S);
  /// The shared execution path for live and replayed jobs: runs \p R
  /// against \p CP on the shared pool, streaming through \p Buf (null
  /// for replay) and retaining results under \p Id when journaling.
  void runCompiled(const prof::CompiledProgram &CP, const JobRequest &R,
                   const resilience::FaultPlan &Faults, uint64_t Id,
                   SendBuffer *Buf);
  /// The end of every stream, live or resumed: the Profile frame, the
  /// completion stats, then the Done frame.
  void finishStream(SendBuffer &Buf, const std::string &Doc,
                    const std::string &DonePayload, uint64_t Streamed);
  /// Streams a retained session's results to a resuming client,
  /// skipping the first \p FromDelta delta payloads (the cursor).
  bool serveResume(SendBuffer &Buf, uint64_t Id, uint64_t FromDelta);
  /// TTL eviction + periodic compaction ticks.
  void maintenanceLoop();
  /// Monotonic milliseconds via Opts.NowMs or steady_clock.
  uint64_t nowMs() const;
  /// Tombstones one retained entry (caller holds RetainedMu).
  void evictLocked(Retained &RR);
  /// Evicts every Done entry older than the TTL (caller holds
  /// RetainedMu). \p Now is nowMs().
  void evictExpiredLocked(uint64_t Now);
  /// Stores a finished session's results under \p Id and applies the
  /// byte-budget eviction policy.
  void retainResult(uint64_t Id, uint64_t NumRuns,
                    std::vector<std::string> Deltas, std::string Doc,
                    std::string DonePayload);
  /// Compacts the journal when forced or past the size threshold.
  void maybeCompact(bool Force);
  /// Admission shared by live and replayed jobs: the fault plan, the
  /// quotas (applied to \p R in place), the corpus lookup, the shared
  /// compile and the entry point. On rejection returns null with an
  /// errc::* code in \p Code and the reason in \p Msg.
  std::shared_ptr<const prof::CompiledProgram>
  admit(JobRequest &R, resilience::FaultPlan &Faults, const char *&Code,
        std::string &Msg);
  /// Applies quotas to \p R in place (clamping unlimited requests).
  /// Returns a non-empty rejection message when a cap is exceeded.
  std::string applyQuotas(JobRequest &R) const;
  /// Sends an Error frame, counts the rejection, and returns false
  /// (so call sites read `return reject(...)`).
  bool reject(int Fd, const char *Code, const std::string &Message);
  /// Joins and erases every finished session. Caller holds SessionsMu.
  void reapLocked();
  /// Folds a session's send-buffer stats into the daemon's. Drop and
  /// disconnect counts are drained from \p Buf (take-semantics), so
  /// folding both mid-stream — making backpressure observable in
  /// stats() before the blocking Profile send — and again at session
  /// end never double-counts.
  void foldSendStats(SendBuffer &Buf);

  DaemonOptions Opts;
  parallel::JobSystem Pool;
  prof::CompileCache Cache;
  Journal Wal;
  std::string AuthToken;

  int ListenFd = -1;
  int TcpListenFd = -1;
  int MetricsFd = -1;
  int BoundMetricsPort = 0;
  int BoundListenPort = 0;
  std::thread AcceptThread;
  std::thread TcpAcceptThread;
  std::thread MetricsThread;
  std::thread MaintThread;
  std::mutex MaintMu;
  std::condition_variable MaintCv; ///< Wakes the maintenance loop early.
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Draining{false}; ///< drain(): no longer accepting.
  bool Started = false;

  std::mutex SessionsMu;
  std::list<std::unique_ptr<Session>> Sessions; ///< Under SessionsMu.
  std::atomic<uint64_t> NextSessionId{1};

  std::mutex RetainedMu;
  std::condition_variable RetainedCv; ///< Signaled when a job finishes.
  std::map<uint64_t, Retained> RetainedResults; ///< Under RetainedMu.
  uint64_t RetainedBytes = 0; ///< Store occupancy; under RetainedMu.
  uint64_t RetainSeq = 0;     ///< Completion ordinal; under RetainedMu.

  std::atomic<uint64_t> StatAccepted{0};
  std::atomic<uint64_t> StatRejected{0};
  std::atomic<uint64_t> StatCompleted{0};
  std::atomic<uint64_t> StatBytes{0};
  std::atomic<uint64_t> StatDeltasStreamed{0};
  std::atomic<uint64_t> StatDeltasDropped{0};
  std::atomic<uint64_t> StatJobsReplayed{0};
  std::atomic<uint64_t> StatAuthFailures{0};
  std::atomic<uint64_t> StatSlowDisconnects{0};
  std::atomic<uint64_t> StatSendBufHighWater{0};
  std::atomic<uint64_t> StatResultsEvicted{0};
  std::atomic<uint64_t> StatCompactions{0};
  std::atomic<uint64_t> StatHealthChecks{0};
};

} // namespace service
} // namespace algoprof

#endif // ALGOPROF_SERVICE_DAEMON_H
