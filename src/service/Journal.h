//===- service/Journal.h - Durable job queue (write-ahead log) --*- C++-*-===//
///
/// \file
/// The daemon's crash-durable job queue: every accepted Job payload is
/// appended to an on-disk write-ahead log before its runs execute, and
/// marked completed after the final profile is retained. On restart
/// the daemon loads the log, re-executes every accepted-but-incomplete
/// job (jobs_replayed), and a reconnecting client `resume=<session>`s
/// to receive the byte-identical final profile — the sweep engine's
/// determinism makes replay safe to repeat any number of times.
///
/// Format (text, append-only):
///
///   algoprof-journal/1\n
///   A <session-id> <payload-bytes>\n<payload>\n     accepted
///   C <session-id>\n                                completed
///
/// The payload is the verbatim Job frame payload (its own length is
/// declared, so embedded newlines and raw source bytes are safe). Each
/// record is one write() followed by fdatasync, so a crash can only
/// lose or truncate the tail record; the loader stops at the first
/// truncated or malformed record instead of failing.
///
/// Compaction: the log grows with every accepted job, but a completed
/// A/C pair carries no information a restart needs. compact() rewrites
/// the log with only the still-pending A records (plus one C record
/// preserving the id high-water mark) — through a temp file
/// that is fdatasync'd and then rename()d over the original, so a
/// crash at any instant leaves either the old complete log or the new
/// complete log, never a torn one. The compacted file is a valid
/// algoprof-journal/1 (the loader is unchanged).
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_SERVICE_JOURNAL_H
#define ALGOPROF_SERVICE_JOURNAL_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace algoprof {
namespace service {

class Journal {
public:
  Journal() = default;
  ~Journal() { close(); }

  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// One accepted-but-incomplete job found in the log.
  struct PendingJob {
    uint64_t Id = 0;
    std::string Payload; ///< Verbatim Job frame payload.
  };

  struct LoadResult {
    std::vector<PendingJob> Pending; ///< In acceptance order.
    uint64_t MaxId = 0;              ///< Highest session id seen.
  };

  /// Reads \p Path (a missing file is an empty, valid log). Returns
  /// false only on I/O errors or a bad header; a truncated tail is
  /// tolerated by design. Never crashes on corruption — bit flips,
  /// oversized length fields, and duplicate records salvage the valid
  /// prefix and stop.
  static bool load(const std::string &Path, LoadResult &Out,
                   std::string &Err);

  /// Opens \p Path for appending, writing the header if the file is
  /// new or empty. Thread-safe appends after this.
  bool open(const std::string &Path, std::string &Err);

  bool isOpen() const { return Fd >= 0; }

  /// An append has failed since open() (disk full, I/O error). The
  /// daemon's /readyz reports not-ready once durability is broken.
  bool failed() const { return Failed.load(); }

  /// Current on-disk size in bytes (tracked across appends and
  /// compactions; 0 when closed). The daemon's size-threshold
  /// compaction trigger reads this instead of stat()ing per append.
  uint64_t sizeBytes() const { return Size.load(); }

  /// Journals an accepted job. Durable (fdatasync) before returning.
  bool appendAccepted(uint64_t Id, const std::string &Payload);

  /// Marks a journaled job complete.
  bool appendCompleted(uint64_t Id);

  /// Rewrites the log keeping only pending (A-without-C) records, via
  /// <path>.tmp + fdatasync + rename, then reopens the append fd on
  /// the new file. Serialized against appends. Returns false (leaving
  /// the old log intact and open) on any I/O failure.
  bool compact(std::string &Err);

  void close();

private:
  bool appendRecord(const std::string &Rec);

  /// Atomic because isOpen() reads it without Mu while compact()
  /// swaps in the rotated file's descriptor.
  std::atomic<int> Fd{-1};
  std::string Path;          ///< Set by open(); compact() needs it.
  std::atomic<uint64_t> Size{0};
  std::atomic<bool> Failed{false};
  std::mutex Mu; ///< Serializes appends (and compaction) across sessions.
};

} // namespace service
} // namespace algoprof

#endif // ALGOPROF_SERVICE_JOURNAL_H
