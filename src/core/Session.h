//===- core/Session.h - High-level AlgoProf API -----------------*- C++-*-===//
///
/// \file
/// The library's front door: compile MiniJ source, run it (plain or
/// profiled, repeatedly, over representative inputs — the paper's "set
/// of program runs"), and extract algorithm profiles: the repetition
/// tree, the grouped algorithms, their classifications, their
/// <size, cost> series, and fitted cost functions.
///
/// The one true path: build a SessionOptions (every knob of a
/// profiling session — profiler options, instrumentation plan choice,
/// VM limits, run count, jobs, seeds, input channel — lives there and
/// nowhere else), hand it to a ProfileDriver, and read the profiles
/// back. The driver picks the serial ProfileSession (Jobs == 1) or the
/// sharded parallel::SweepEngine (any other Jobs) behind one API; the
/// output is byte-identical either way:
///
/// \code
///   DiagnosticEngine Diags;
///   auto CP = compileMiniJ(Source, Diags);
///   SessionOptions SO;
///   SO.Runs = 16;
///   SO.Jobs = 4;
///   ProfileDriver D(*CP, SO);
///   D.runAll("Main", "main");
///   for (const AlgorithmProfile &AP : D.buildProfiles())
///     ... AP.Label, AP.Series[i].Fit.formula() ...
/// \endcode
///
/// ProfileSession remains available for callers that drive runs one at
/// a time (interleaving their own I/O between runs); it consumes the
/// same SessionOptions.
///
/// Observability is ambient rather than an options knob: every session
/// (serial or sharded) reports into the process-wide obs registry
/// (obs/Obs.h) — phase timers, volume counters, and, when
/// obs::enableTracing is on, per-shard trace tracks. Read it with
/// obs::snapshot(); docs/observability.md covers the exporters.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_CORE_SESSION_H
#define ALGOPROF_CORE_SESSION_H

#include "analysis/IndexDataflow.h"
#include "core/AlgoProfiler.h"
#include "core/Classification.h"
#include "core/Grouping.h"
#include "fitting/CurveFit.h"
#include "frontend/Ast.h"
#include "resilience/Resilience.h"

#include <memory>
#include <string>

namespace algoprof {
namespace prof {

/// A fully compiled and analyzed MiniJ program.
struct CompiledProgram {
  std::unique_ptr<Program> Ast;
  std::unique_ptr<bc::Module> Mod;
  vm::PreparedProgram Prep; ///< Points into *Mod.
  analysis::IndexDataflow Dataflow;

  /// Method id of static no-arg "Cls.Method", or -1.
  int32_t entryMethod(const std::string &Cls,
                      const std::string &Method) const;
};

/// Lex + parse + sema + compile + static analyses. Returns null and
/// reports via \p Diags on any front-end error.
std::unique_ptr<CompiledProgram> compileMiniJ(const std::string &Source,
                                              DiagnosticEngine &Diags);

/// Runs \p CP unprofiled (no listener). \p Io may be null.
vm::RunResult runPlain(const CompiledProgram &CP, const std::string &Cls,
                       const std::string &Method,
                       vm::IoChannels *Io = nullptr,
                       const vm::RunOptions &Opts = vm::RunOptions());

/// The instrumentation plan a profiling session uses for \p CP (shared
/// by ProfileSession and parallel::SweepEngine workers; plans are
/// immutable during runs and therefore safe to share across threads).
vm::InstrumentationPlan makeInstrumentationPlan(const CompiledProgram &CP,
                                                bool AllMethods);

/// Everything known about one algorithm after profiling.
struct AlgorithmProfile {
  Algorithm Algo;
  std::vector<CombinedInvocation> Invocations;
  Classification Class;
  std::string Label;

  /// A <size, steps> series pooled over all inputs of one kind. A sweep
  /// harness creates one structure instance per run (each its own input
  /// id); the paper's Figure 1 plots pool them: every root invocation
  /// contributes one point <size of its instance, its cost>.
  struct InputSeries {
    std::string Kind;              ///< Input label ("Node-based ...").
    std::vector<int32_t> InputIds; ///< Canonical ids pooled here.
    std::vector<SeriesPoint> Series;
    fit::FitResult Fit;
    bool Interesting = false;

    /// The paper's "multiple plots ... based on the combinations of
    /// their inputs and cost measures" (Sec. 3.5): fits for the
    /// non-step cost measures on this input, present only when the
    /// measure's series is itself interesting (the paper's heuristic
    /// excludes constant-cost measures).
    std::map<CostKind, fit::FitResult> MeasureFits;
  };
  std::vector<InputSeries> Series;

  /// The first interesting series, or null.
  const InputSeries *primarySeries() const;
};

/// Every knob of a profiling session, serial or sharded. This is the
/// single options struct consumed by ProfileSession, ProfileDriver,
/// and parallel::SweepEngine — there is no separate sweep-options
/// type, so serial and sharded sessions cannot drift apart in what
/// they configure (ParallelSweepTest asserts the parity).
struct SessionOptions {
  /// Profiler knobs: equivalence strategy, snapshot mode, sampling.
  ProfileOptions Profile;
  /// Use the all-methods plan (dynamic recursion folding without the
  /// static header analysis); creates a recursion node for every method.
  bool AllMethodsPlan = false;
  /// VM limits (fuel, frame depth, array length) for every run.
  vm::RunOptions Run;
  /// How many profiled runs a driver/sweep executes. Ignored when
  /// Seeds is non-empty (then it is Seeds.size() runs).
  int Runs = 1;
  /// Worker threads. 1 is the serial accumulating session; 0 picks
  /// std::thread::hardware_concurrency(); any other value shards the
  /// runs over that many workers. The profile is byte-identical for
  /// every value.
  int Jobs = 1;
  /// One profiled run per seed, merged in this order. Each run's input
  /// channel is pre-loaded with just its seed value, so MiniJ programs
  /// size their workload with In.read(). Takes precedence over
  /// Runs/Input when non-empty.
  std::vector<int64_t> Seeds;
  /// External input-channel values handed to every run (the CLI's
  /// --input). Unused for seeded runs.
  std::vector<int64_t> Input;
  /// What a sweep does with a run whose final attempt failed. Fail
  /// (default) preserves the legacy all-or-nothing behavior: failed
  /// runs still merge and the caller decides. Skip/Retry quarantine
  /// failed runs so the merged profile covers exactly the survivors —
  /// see docs/resilience.md.
  resilience::FailurePolicy Policy = resilience::FailurePolicy::Fail;
  /// Executions per run under Retry (first attempt included, >= 1).
  /// Retries use a fresh interpreter with the same inputs.
  int MaxAttempts = 3;
  /// Armed deterministic faults, all session-scoped. Run-scoped sites
  /// (heap-oom, run-start-fail) fire inside the sweep engine;
  /// io-write-fail is consulted by whoever writes this session's
  /// report/trace/metrics output (Faults.firesIoWrite). Nothing is
  /// process-global, so a daemon can arm faults per session.
  resilience::FaultPlan Faults;
};

/// The run plan shared by every driver, sweep, corpus batch and daemon
/// session: the number of profiled runs — one per seed, otherwise
/// max(1, \p Runs).
size_t runCount(const std::vector<int64_t> &Seeds, int Runs);

/// The run plan's per-run input channels, in run order: each seeded run
/// is pre-loaded with just its seed; unseeded runs all receive \p Input.
std::vector<vm::IoChannels> runInputs(const std::vector<int64_t> &Seeds,
                                      int Runs,
                                      const std::vector<int64_t> &Input);

/// Worker threads for a Jobs setting: 0 picks
/// std::thread::hardware_concurrency() (at least 1); anything else is
/// clamped to at least 1.
unsigned workerCount(int Jobs);

/// Groups \p Tree into algorithms and runs the full profile pipeline
/// (combine, classify, extract series, fit) against \p Inputs. This is
/// the common back half of ProfileSession::buildProfiles and
/// parallel::SweepEngine: both produce a (tree, inputs) pair — one by
/// accumulation, one by merging shards — and the profiles come out of
/// this single code path, which is what makes the differential tests
/// meaningful.
std::vector<AlgorithmProfile>
buildProfilesFrom(const RepetitionTree &Tree, const InputTable &Inputs,
                  const CompiledProgram &CP,
                  GroupingStrategy Strategy = GroupingStrategy::CommonInput);

/// A profiling session: one interpreter + one AlgoProfiler accumulating
/// any number of runs into one repetition tree. Between runs the heap's
/// memory is recycled (vm::Heap::recycle) without reusing object ids, so
/// run-scoped heap state cannot leak into — or alias inside — the
/// profiler's id-keyed input maps.
class ProfileSession {
public:
  explicit ProfileSession(const CompiledProgram &CP,
                          SessionOptions Opts = SessionOptions());

  /// Runs static no-arg "Cls.Method" under the profiler.
  vm::RunResult run(const std::string &Cls, const std::string &Method);
  vm::RunResult run(const std::string &Cls, const std::string &Method,
                    vm::IoChannels &Io);

  AlgoProfiler &profiler() { return Prof; }
  vm::Interpreter &interpreter() { return Interp; }
  const RepetitionTree &tree() const { return Prof.tree(); }
  InputTable &inputs() { return Prof.inputs(); }
  const CompiledProgram &compiled() const { return CP; }
  const SessionOptions &options() const { return Opts; }

  /// Groups the accumulated tree into algorithms.
  std::vector<Algorithm>
  algorithms(GroupingStrategy Strategy = GroupingStrategy::CommonInput)
      const;

  /// Full pipeline: group, combine, classify, extract series, fit.
  std::vector<AlgorithmProfile> buildProfiles(
      GroupingStrategy Strategy = GroupingStrategy::CommonInput) const;

private:
  const CompiledProgram &CP;
  SessionOptions Opts;
  vm::InstrumentationPlan Plan;
  vm::Interpreter Interp;
  AlgoProfiler Prof;
};

} // namespace prof

namespace parallel {
class SweepEngine;
} // namespace parallel

namespace prof {

/// The one-true-path front end over serial and sharded profiling: runs
/// every configured run (SessionOptions::Runs or ::Seeds) of one entry
/// point and exposes the accumulated tree/inputs/profiles. Jobs == 1
/// owns a ProfileSession; anything else owns a parallel::SweepEngine.
/// Callers that don't care about the execution strategy (the CLI, the
/// examples) should use this instead of picking an engine by hand.
class ProfileDriver {
public:
  explicit ProfileDriver(const CompiledProgram &CP,
                         SessionOptions Opts = SessionOptions());
  ~ProfileDriver();

  /// Executes all configured runs of static no-arg "Cls.Method". Seeded
  /// sessions (Opts.Seeds non-empty) run once per seed with the seed as
  /// the sole input value; otherwise Opts.Runs runs each receive
  /// Opts.Input. Returns one RunResult per run, in run order.
  std::vector<vm::RunResult> runAll(const std::string &Cls,
                                    const std::string &Method);

  const RepetitionTree &tree() const;
  const InputTable &inputs() const;
  const SessionOptions &options() const { return Opts; }

  /// Degraded-run records accumulated across runAll calls, in run
  /// order: every run whose final attempt failed (serial failures are
  /// never quarantined; sweep failures follow SessionOptions::Policy).
  const std::vector<resilience::FailureInfo> &failures() const {
    return Failures;
  }

  /// True when the accumulated profile is well-defined: at least one
  /// run merged and every failure was quarantined out. The degraded
  /// analogue of "all runs ok" (see SweepResult::usable()).
  bool usable() const;

  /// Full pipeline over the accumulated state (same code path for both
  /// strategies: buildProfilesFrom).
  std::vector<AlgorithmProfile> buildProfiles(
      GroupingStrategy Strategy = GroupingStrategy::CommonInput) const;

private:
  SessionOptions Opts;
  std::unique_ptr<ProfileSession> Serial;       ///< Fail-policy Jobs == 1.
  std::unique_ptr<parallel::SweepEngine> Engine; ///< Otherwise.
  std::vector<resilience::FailureInfo> Failures;
  bool MergedAny = false;
};

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_SESSION_H
