//===- tests/SweepTestUtil.h - Helpers for sweep/merge tests ----*- C++-*-===//
///
/// \file
/// Shared machinery for the parallel-sweep differential tests and the
/// merge property tests: run single profiled shards by hand, and render
/// profile pipelines into id-free signature strings that must match
/// byte-for-byte between a serial session and any sharded sweep.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_TESTS_SWEEPTESTUTIL_H
#define ALGOPROF_TESTS_SWEEPTESTUTIL_H

#include "core/Session.h"
#include "parallel/SweepEngine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace algoprof {
namespace testutil {

/// One hand-run profiled shard, as SweepEngine's workers produce them.
struct ShardRun {
  std::unique_ptr<prof::AlgoProfiler> Prof;
  vm::RunResult Result;
};

inline ShardRun runShard(const prof::CompiledProgram &CP,
                         const prof::SessionOptions &Opts,
                         std::vector<int64_t> Input = {}) {
  ShardRun S;
  vm::Interpreter Interp(CP.Prep);
  S.Prof = std::make_unique<prof::AlgoProfiler>(CP.Prep, Opts.Profile);
  vm::InstrumentationPlan Plan =
      prof::makeInstrumentationPlan(CP, Opts.AllMethodsPlan);
  vm::IoChannels Io;
  Io.Input = std::move(Input);
  S.Result = Interp.run(CP.entryMethod("Main", "main"), S.Prof.get(),
                        Plan, Io, Opts.Run);
  return S;
}

inline std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Renders everything the differential tests must see unchanged: labels,
/// per-input classifications, series points, fitted formulas, and the
/// per-measure fits. Input ids are deliberately absent — a sweep merge
/// may skip id numbers a serial session burned on short-lived inputs;
/// every observable fact about an input appears through its label.
/// \p SortPoints sorts each series (for run-order permutation tests,
/// where point order legitimately follows run order).
inline std::string
profileSignature(const std::vector<prof::AlgorithmProfile> &Profiles,
                 const prof::InputTable &T, bool SortPoints = false) {
  std::string Sig;
  for (const prof::AlgorithmProfile &AP : Profiles) {
    Sig += "algo: " + AP.Label + "\n";
    for (const prof::Classification::PerInput &PI : AP.Class.Inputs)
      Sig += "  class: " +
             std::string(prof::algorithmClassName(PI.Class)) + " of " +
             T.info(PI.InputId).Label + "\n";
    Sig += AP.Class.DoesInput ? "  does-input\n" : "";
    Sig += AP.Class.DoesOutput ? "  does-output\n" : "";
    for (const prof::AlgorithmProfile::InputSeries &S : AP.Series) {
      Sig += "  series " + S.Kind +
             (S.Interesting ? " interesting" : "") + "\n";
      std::vector<prof::SeriesPoint> Pts = S.Series;
      if (SortPoints)
        std::sort(Pts.begin(), Pts.end(),
                  [](const prof::SeriesPoint &A,
                     const prof::SeriesPoint &B) {
                    return A.X != B.X ? A.X < B.X : A.Y < B.Y;
                  });
      for (const prof::SeriesPoint &P : Pts)
        Sig += "    <" + fmtDouble(P.X) + ", " + fmtDouble(P.Y) + ">\n";
      if (S.Fit.Valid)
        Sig += "    fit " + S.Fit.formula() + "\n";
      for (const auto &[Kind, Fit] : S.MeasureFits)
        Sig += "    measure " + std::string(prof::costKindLabel(Kind)) +
               " " + Fit.formula() + "\n";
    }
  }
  return Sig;
}

/// Structural tree signature, id-free: node names in pre-order with
/// invocation counts, per-record steps, finalization flags, and parent
/// attribution indices. Serial vs sweep must agree exactly.
inline std::string treeSignature(const prof::RepetitionTree &T) {
  std::string Sig;
  T.forEach([&Sig](const prof::RepetitionNode &N) {
    Sig += N.Name + " depth=" + std::to_string(N.depth()) +
           " total=" + std::to_string(N.TotalInvocations) +
           " records=" + std::to_string(N.History.size()) + "\n";
    for (const prof::RecordView &R : N.records())
      Sig += "  steps=" + std::to_string(R.Costs.steps()) +
             " folded=" + std::to_string(R.FoldedCosts.steps()) +
             " inputs=" + std::to_string(R.Inputs.size()) +
             " parent=" + std::to_string(R.ParentInvocation) +
             (R.Finalized ? " fin" : "") + "\n";
  });
  return Sig;
}

/// Live-input signature: label, value sets, class counts, capacity:
/// everything later merges and the profile back half read. (Member
/// object ids are AllElements identification state; a merged table
/// keeps none.)
inline std::string inputsSignature(const prof::InputTable &T) {
  std::string Sig;
  for (int32_t Id : T.liveInputs()) {
    const prof::InputInfo &Info = T.info(Id);
    Sig += Info.Label + (Info.IsArray ? " array" : "") +
           (Info.IsStream ? " stream" : "") + ":";
    std::vector<int64_t> Values(Info.ValueSet.begin(),
                                Info.ValueSet.end());
    std::sort(Values.begin(), Values.end());
    for (int64_t V : Values)
      Sig += " v" + std::to_string(V);
    for (const auto &[ClassId, N] : Info.MemberClassCounts)
      Sig += " c" + std::to_string(ClassId) + "x" + std::to_string(N);
    Sig += " cap" + std::to_string(Info.MaxCapacitySeen) + "\n";
  }
  return Sig;
}

/// Faults in \p T's record columns, one line each; empty when, in every
/// node, each record range lies inside its column, no two ranges of a
/// column overlap, and each range is sorted with unique keys.
inline std::string recordColumnFaults(const prof::RepetitionTree &T) {
  std::string Faults;
  T.forEach([&Faults](const prof::RepetitionNode &N) {
    using Span = std::pair<size_t, size_t>; // [begin, end)
    std::vector<Span> CostRanges, UseRanges;
    for (size_t I = 0; I < N.History.size(); ++I) {
      const prof::InvocationRecord &R = N.History[I];
      std::string Where = N.Name + " record " + std::to_string(I) + ": ";
      for (prof::ColumnRange C : {R.Costs, R.FoldedCosts}) {
        if (size_t{C.Begin} + C.Size > N.CostColumn.size()) {
          Faults += Where + "cost range past the column\n";
          continue;
        }
        CostRanges.push_back({C.Begin, size_t{C.Begin} + C.Size});
        prof::CostSpan Costs = N.costs(C);
        if (std::adjacent_find(Costs.begin(), Costs.end(),
                               [](const auto &A, const auto &B) {
                                 return !(A.first < B.first);
                               }) != Costs.end())
          Faults += Where + "cost range not strictly ascending\n";
      }
      if (size_t{R.Inputs.Begin} + R.Inputs.Size > N.UseColumn.size()) {
        Faults += Where + "use range past the column\n";
        continue;
      }
      UseRanges.push_back(
          {R.Inputs.Begin, size_t{R.Inputs.Begin} + R.Inputs.Size});
      prof::UseSpan Uses = N.uses(R.Inputs);
      if (std::adjacent_find(Uses.begin(), Uses.end(),
                             [](const auto &A, const auto &B) {
                               return A.first >= B.first;
                             }) != Uses.end())
        Faults += Where + "use range not strictly ascending\n";
    }
    for (std::vector<Span> *Ranges : {&CostRanges, &UseRanges}) {
      std::sort(Ranges->begin(), Ranges->end());
      size_t End = 0;
      for (const auto &[B, E] : *Ranges) {
        if (B == E)
          continue;
        if (B < End)
          Faults += N.Name + ": overlapping record ranges\n";
        End = std::max(End, E);
      }
    }
  });
  return Faults;
}

/// Records and column entries left anywhere in \p T: zero once a merge
/// consumed it.
inline size_t heldRecordState(const prof::RepetitionTree &T) {
  size_t Held = 0;
  T.forEach([&Held](const prof::RepetitionNode &N) {
    Held += N.History.size() + N.CostColumn.size() + N.UseColumn.size();
  });
  return Held;
}

} // namespace testutil
} // namespace algoprof

#endif // ALGOPROF_TESTS_SWEEPTESTUTIL_H
