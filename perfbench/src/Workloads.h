//===- perfbench/src/Workloads.h - The four benchmark workloads -*- C++-*-===//
///
/// \file
/// A workload owns its seeded inputs, its timed set-up, the reference
/// profiles every job output is checked against, and one "job": the
/// unit a user waits for (a corpus batch, a sweep, a daemon session).
/// main.cpp drives every workload through the same phases: set-up
/// (timed, repeated), references, one warm-up job, the timed closed
/// loop, and — traced runs only — the layer ladder (Ladder.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include "service/Protocol.h"

#include <memory>
#include <string>
#include <vector>

namespace algoprof::service {
class Daemon;
} // namespace algoprof::service

namespace perfbench {

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Worker threads for the pooled workloads (0 = nproc).
  unsigned Jobs = 0;
  /// Chrome trace output of a traced run (empty = none).
  std::string TraceOut;
  /// Directory for the daemon's Unix sockets (inside the checkout).
  std::string TmpDir = ".bench_out";
};

/// One profiling job's inputs: a built-in corpus program over a seed
/// grid (one profiled run per seed, merged in grid order).
struct Item {
  std::string Name;
  std::vector<int64_t> Seeds;

  /// "name@s1,s2,..." — the key of the committed reference digests.
  std::string key() const;
};

/// What one timed job observed.
struct Sample {
  double Ms = 0;
  bool Traced = false;
  uint64_t Runs = 0;
};

/// Client-side timings of one daemon session, read frame by frame with
/// the public service/Protocol.h reader.
struct SessionTiming {
  bool Ok = false;
  std::string Error;
  double AcceptMs = 0;     ///< Submit -> Accepted frame.
  double FirstDeltaMs = 0; ///< Submit -> first RunDelta.
  double TotalMs = 0;      ///< Submit -> Done.
  double TailMs = 0;       ///< Last RunDelta -> Done.
  std::vector<double> GapsMs; ///< Between consecutive RunDeltas.
  uint64_t Deltas = 0;
  std::string Profile;
};

/// Runs one job against the daemon listening on \p SocketPath.
SessionTiming runSession(const std::string &SocketPath,
                         const algoprof::service::JobRequest &R);

/// Service timings gathered by a run, whichever phase made them.
struct ServiceSamples {
  std::mutex M;
  std::vector<double> AcceptMs, FirstDeltaMs, GapMs, TailMs;
  uint64_t Sessions = 0;
  uint64_t Bytes = 0;
  uint64_t Dropped = 0;
  void add(const SessionTiming &T);
};

class Workload {
public:
  explicit Workload(const Config &C) : Cfg(C) {}
  virtual ~Workload();

  /// The one-time set-up before the first timed job. Called several
  /// times (each timed); tearDown() runs between calls.
  virtual void setUp() = 0;
  virtual void tearDown() {}

  /// Computes the reference profile of every item with a serial
  /// ProfileDriver (Jobs=1) and prints its digest ("# ref key digest")
  /// for run.py to compare with the committed digests.
  virtual void prepareReferences() = 0;

  /// Runs jobs in a closed loop until \p Seconds have passed (at least
  /// one job), numbering them on from the previous call. In a traced
  /// run every other job records spans.
  virtual std::vector<Sample> loop(double Seconds, bool TraceOddJobs);

  /// Ends the timed part (the daemon workload stops its daemon here and
  /// collects its totals).
  virtual void finish() {}

  /// One job. Checks its profiles against the references.
  virtual Sample runJob(uint64_t Index, bool Traced) = 0;

  /// The workload's own inputs, re-run rung by rung by the ladder.
  virtual std::vector<Item> ladderItems() const = 0;
  /// The sizing/equivalence configuration the workload's jobs use.
  virtual algoprof::prof::ProfileOptions profileOptions() const {
    return algoprof::prof::ProfileOptions();
  }
  /// The percentile job_ms_tail reports: fixed per workload, the
  /// highest that leaves at least ten of the jobs a run makes above it.
  virtual double tailQuantile() const = 0;
  /// Worker threads the workload's jobs keep busy (cpu_util's base).
  virtual unsigned workers() const { return 1; }
  /// Daemon sessions the loop made (only the daemon workload has any).
  ServiceSamples &service() { return Service; }

  Failures Fails;

  /// Compares \p Got with the reference of \p Key; a mismatch fails.
  void check(const std::string &Key, const std::string &Got);

protected:
  /// Computes the reference profile of \p It (see prepareReferences),
  /// keeping its profiles in \p Keep when non-null.
  void addReference(const Item &It, const algoprof::prof::CompiledProgram &CP,
                    std::vector<algoprof::prof::AlgorithmProfile> *Keep =
                        nullptr);

  Config Cfg;
  uint64_t NextJob = 1; ///< Job 0 is the warm-up.
  std::map<std::string, std::string> Refs; ///< key -> profile JSON.
  ServiceSamples Service;
};

std::unique_ptr<Workload> makeWorkload(const Config &C);

/// Programs whose serial-session profile differs from the sweep
/// engine's at seed code, for every seed and worker count: the engine
/// lists per-run tree inputs under the algorithm's input classes that
/// the serial session leaves out. Until that is fixed, their reference
/// is the engine at Jobs=1, so the check still covers worker-count
/// invariance; the divergence itself is reported on every run.
bool knownDivergent(const std::string &Name);

/// The layer ladder of a traced run (Ladder.cpp): re-runs \p W's own
/// inputs rung by rung and sets every per-layer metric on \p Out.
void runLadder(Workload &W, const Config &C, Metrics &Out);

/// An in-process daemon and the socket it listens on.
struct DaemonHandle {
  std::unique_ptr<algoprof::service::Daemon> D;
  std::string Path;
  ~DaemonHandle();
};

/// Starts an in-process daemon with \p Workers workers on a socket
/// under the config's temp dir; exits on failure.
std::unique_ptr<DaemonHandle> startDaemon(const Config &C, unsigned Workers,
                                          const std::string &Tag);
/// Stops \p D, first adding its totals to \p Stats when non-null.
void stopDaemon(std::unique_ptr<DaemonHandle> D, ServiceSamples *Stats);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
