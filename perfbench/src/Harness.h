//===- perfbench/src/Harness.h - Benchmark plumbing -------------*- C++-*-===//
///
/// \file
/// What every workload shares: the seeded input generator, wall and CPU
/// clocks, order statistics, the benchmark's own span recorder (Chrome
/// trace-event export, per-layer self time), profile rendering and
/// fingerprints, and the metric sink that prints the result line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/Session.h"
#include "resilience/Resilience.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// splitmix64: fully specified, so a seed draws the same inputs with
/// every compiler and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [Lo, Hi] (inclusive; the modulo bias is irrelevant here).
  int64_t range(int64_t Lo, int64_t Hi);

private:
  uint64_t State;
};

/// Base, Base+Step, ... (Count values), each but the last moved by a
/// draw in [-Jitter, Jitter]. The largest size, which dominates a job's
/// cost, stays put so that the cost does not swing with the seed.
/// Jitter < Step/2 keeps the grid strictly ascending.
std::vector<int64_t> jitteredGrid(Rng &R, int64_t Base, int64_t Step,
                                  int Count, int64_t Jitter);

/// Source of a built-in corpus program; aborts on an unknown name.
const std::string &corpusSource(const std::string &Name);

//===----------------------------------------------------------------------===//
// Clocks and statistics
//===----------------------------------------------------------------------===//

uint64_t nowNs();
double msSince(uint64_t StartNs);
/// Process user+sys CPU time in milliseconds (getrusage).
double processCpuMs();
/// Peak resident set in MiB (getrusage ru_maxrss).
double peakRssMb();
/// Time the hypervisor has taken from this machine's CPUs, summed over
/// all of them, in milliseconds (the steal column of /proc/stat; 0
/// where that is unavailable).
double stolenMs();
unsigned nproc();

/// Linear-interpolated quantile (Q in [0,1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// One run of the calibration kernel, in thread CPU milliseconds (so
/// time the hypervisor steals is not counted): a tiny stack
/// interpreter over a fixed pseudo-random program (indirect dispatch,
/// data-dependent branches, small heap objects, std::map counters) that
/// shares no code with algoprof. It measures how fast this machine
/// runs interpreter-like code at the moment.
double calibrationMs();

/// What calibrationMs() takes on the reference machine (4-core x86-64
/// container, GCC 12, RelWithDebInfo) at a quiet moment.
constexpr double CalibrationRefMs = 6.5;

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded interval. Layer is the algoprof module whose public
/// function the span wraps ("frontend", "core", ...); "bench" marks the
/// benchmark's own job spans.
struct Span {
  const char *Layer = "";
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1; ///< Index into Tracer's span list, -1 for roots.
  uint64_t Job = 0;    ///< Shared by every span of one job.
  uint32_t Tid = 0;
};

/// In-memory span recorder, written out once at the end. Disabled
/// recorders cost one branch per span.
class Tracer {
public:
  void enable(bool On) { Enabled = On; }

  /// Opens a span on the calling thread; returns its index or -1.
  int64_t open(const char *Layer, std::string Name, uint64_t Job);
  void close(int64_t Index);

  /// Self time (span minus the part its child spans cover), summed per
  /// layer over the spans with StartNs >= \p FromNs, in milliseconds.
  std::map<std::string, double> selfMsByLayer(uint64_t FromNs = 0) const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  std::string chromeJson() const;

  size_t size() const;

private:
  mutable std::mutex M;
  std::vector<Span> Spans;
  bool Enabled = false;
};

Tracer &tracer();

/// Turns span recording on or off for the calling thread while in
/// scope (a traced run records every other job).
class JobTracing {
public:
  explicit JobTracing(bool On);
  ~JobTracing();
  JobTracing(const JobTracing &) = delete;
  JobTracing &operator=(const JobTracing &) = delete;

private:
  bool Prev;
};

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(const char *Layer, std::string Name, uint64_t Job = 0);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int64_t Index;
};

//===----------------------------------------------------------------------===//
// Profiles
//===----------------------------------------------------------------------===//

/// The algoprof-profile/2 JSON document of one session, rendered by the
/// `json` reporter exactly as the CLI and the daemon render it.
std::string renderJson(const algoprof::prof::RepetitionTree &Tree,
                       const algoprof::prof::InputTable &Inputs,
                       const std::vector<algoprof::prof::AlgorithmProfile> &P,
                       const std::vector<algoprof::resilience::FailureInfo>
                           *Degraded);

/// Labels, series kinds, point counts and fitted formulas.
std::string
fingerprint(const std::vector<algoprof::prof::AlgorithmProfile> &Profiles);

/// 64-bit FNV-1a as 16 hex digits: the committed reference digests.
std::string digest(const std::string &Bytes);

/// Compiles \p Source or aborts with its diagnostics.
std::unique_ptr<algoprof::prof::CompiledProgram>
compileOrDie(const std::string &Name, const std::string &Source);

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Named metrics in insertion order, printed as the result line.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  const std::vector<std::pair<std::string, Metric>> &all() const {
    return Items;
  }

private:
  std::vector<std::pair<std::string, Metric>> Items;
};

/// Full-precision JSON number ("null" for non-finite values).
std::string jsonNumber(double V);
std::string jsonString(const std::string &S);

/// Appends a "failed" note to stderr and counts it.
struct Failures {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::mutex M;
  void attempt(uint64_t N = 1);
  void fail(const std::string &What);
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
