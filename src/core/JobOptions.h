//===- core/JobOptions.h - A job's description and its key table -*- C++-*-===//
///
/// \file
/// What a profiling job runs and over which set of executions (the
/// paper merges repetitions across runs, Sec. 3): the entry point, the
/// seeds or run count, the input channel, the failure policy and its
/// retries, the per-run budgets and the armed faults.
///
/// One table of keys defines that description for every surface:
///
///   - the flags of `algoprof` and `algoprof_client` (JobKey::Flag),
///   - the algoprofd Job payload, which the daemon's journal stores
///     verbatim (JobKey::Wire; service/Protocol.h),
///   - the SessionOptions a job runs under (JobOptions::applyTo).
///
/// Each key has one strict parser, so all surfaces accept the same
/// values and reject the rest with the same text:
///
///   invalid value '0' for --runs (expected an integer in [1, 1000000000])
///
/// Rules shared by every key: a repeated key replaces the earlier value;
/// an empty list is the empty list, which is the default; an empty class
/// or method name is invalid. A key at its default is never written.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_CORE_JOBOPTIONS_H
#define ALGOPROF_CORE_JOBOPTIONS_H

#include "resilience/Resilience.h"

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace algoprof {
namespace prof {

struct SessionOptions;

/// A job's description: every field is one key of jobKeys().
struct JobOptions {
  std::string EntryClass = "Main";
  std::string EntryMethod = "main";
  std::vector<int64_t> Seeds; ///< One run per seed (wins over Runs).
  int Runs = 1;
  std::vector<int64_t> Input; ///< Input channel for unseeded runs.
  resilience::FailurePolicy Policy = resilience::FailurePolicy::Fail;
  int MaxAttempts = 3;        ///< Executions per run: retries + 1.
  uint64_t MaxHeapBytes = 0;  ///< Per-run heap budget, 0 = off.
  uint64_t RunDeadlineMs = 0; ///< Per-run deadline, 0 = off.
  std::string InjectSpec;     ///< FaultPlan spec, session-scoped.

  bool operator==(const JobOptions &) const = default;

  /// Sets the run plan, policy, budgets and parsed fault plan of \p SO,
  /// leaving its profile and execution knobs alone. Fails, with \p Err,
  /// only when InjectSpec does not parse, which a parsed job never has.
  bool applyTo(SessionOptions &SO, std::string &Err) const;
};

/// One key of a job.
struct JobKey {
  const char *Wire = nullptr;   ///< Payload key; null when CLI-only.
  const char *Flag = nullptr;   ///< Flag of both CLIs; null when wire-only.
  const char *Metavar = "N";    ///< The flag's value in usage text.
  const char *Help = "";        ///< What the key does, for usage text.
  const char *Default = "";     ///< The default value, as Render writes it.
  const char *Values = nullptr; ///< What a valid value looks like; null
                                ///< for integer keys (see Min/Max).
  int64_t Min = 0, Max = 0;     ///< Integer keys: the accepted range.
  /// Sets the key's member from \p V, or returns false and leaves \p O
  /// untouched. \p Why may name the fault beyond expected().
  bool (*Parse)(const JobKey &K, const std::string &V, JobOptions &O,
                std::string &Why) = nullptr;
  std::string (*Render)(const JobOptions &O) = nullptr;

  /// The "expected ..." text of errors and docs: Values, or the range.
  std::string expected() const;
};

/// The table, in payload order.
std::span<const JobKey> jobKeys();

/// The key whose Flag (`--runs`) or Wire name (`runs`) is \p Name.
const JobKey *findJobFlag(std::string_view Name);
const JobKey *findJobWireKey(std::string_view Name);

/// Parses \p Value (null: the flag had none) for key \p K, which \p Name
/// spells (its Flag or Wire name). On failure \p Err reads
/// "invalid value 'V' for NAME (expected ...)", plus ": WHY" when the
/// parser says more.
bool parseJobValue(const JobKey &K, const char *Name, const char *Value,
                   JobOptions &O, std::string &Err);

/// Appends a `key=value` line for every key of \p O not at its default,
/// in table order: the job part of a Job payload.
void encodeJobOptions(const JobOptions &O, std::string &Out);

/// One usage line per job flag: flag, value, help, range and default.
std::string jobFlagsUsage();

/// "invalid value 'V' for NAME (expected E)"; a null \p Value reads
/// "<missing>".
std::string invalidValue(const char *Name, const char *Value,
                         const std::string &Expected);

/// "an integer in [Min, Max]", or "an integer >= Min" for an open range.
std::string rangeText(int64_t Min, int64_t Max);

inline constexpr int64_t MaxInt64 = std::numeric_limits<int64_t>::max();

/// The one strict decimal integer parser: all of \p S is an optional '-'
/// and digits (no '+', no spaces), and the value lies in [Min, Max].
bool parseInteger(std::string_view S, int64_t Min, int64_t Max,
                  int64_t &Out);

/// parseInteger into a narrower member; [Min, Max] must fit in \p T.
template <typename T>
bool parseInteger(std::string_view S, int64_t Min, int64_t Max, T &Out) {
  int64_t V = 0;
  if (!parseInteger(S, Min, Max, V))
    return false;
  Out = static_cast<T>(V);
  return true;
}

/// parseInteger over the part of \p T's range that int64_t holds.
template <typename T> bool parseInteger(std::string_view S, T &Out) {
  using L = std::numeric_limits<T>;
  constexpr int64_t Min = std::is_signed_v<T> ? int64_t(L::min()) : 0;
  constexpr int64_t Max =
      uint64_t(L::max()) > uint64_t(MaxInt64) ? MaxInt64 : int64_t(L::max());
  return parseInteger(S, Min, Max, Out);
}

/// parseInteger for a flag's value (null when missing), with an
/// invalidValue() message in \p Err on failure.
template <typename T>
bool parseIntFlag(const char *Flag, const char *Value, int64_t Min,
                  int64_t Max, T &Out, std::string &Err) {
  if (Value && parseInteger(Value, Min, Max, Out))
    return true;
  Err = invalidValue(Flag, Value, rangeText(Min, Max));
  return false;
}

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_JOBOPTIONS_H
