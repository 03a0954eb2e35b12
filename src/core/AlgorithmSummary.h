//===- core/AlgorithmSummary.h - Combined costs and series ------*- C++-*-===//
///
/// \file
/// Cost combination (paper Sec. 2.6: a parent invocation's overall cost
/// is its own plus the summed costs of grouped child invocations inside
/// it) and the extraction of <input size, cost> series that cost
/// functions are fitted to (Sec. 2.7).
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_CORE_ALGORITHMSUMMARY_H
#define ALGOPROF_CORE_ALGORITHMSUMMARY_H

#include "core/Grouping.h"

#include <array>
#include <span>
#include <vector>

namespace algoprof {
namespace prof {

/// One finalized root-level invocation of an algorithm with the
/// group-internal child costs folded in.
struct CombinedInvocation {
  CostMap Costs;
  InputUses Inputs;
};

/// Combines the invocation histories of \p A's nodes into its root's
/// finalized invocations, in one top-down pass: every record maps to
/// the root invocation it folds into (or to none), and each combined
/// row is built once from its records' canonicalized entries, with no
/// intermediate per-record rows. A row's
/// input uses fold in visit order (the root record first, then member
/// nodes in pre-order, records in history order); sizes are maxima, so
/// only FirstSize/LastSize depend on that order.
std::vector<CombinedInvocation>
combineInvocations(const Algorithm &A, const InputTable &T);

/// One data point of a cost function plot.
struct SeriesPoint {
  double X = 0; ///< Input size.
  double Y = 0; ///< Cost.
};

/// The cost kinds of an input kind's series in a profile: the steps the
/// primary fit is made on, then the per-measure plots of Sec. 3.5.
inline constexpr std::array<CostKind, 5> ProfileSeriesKinds = {
    CostKind::Step, CostKind::StructGet, CostKind::StructPut,
    CostKind::ArrayLoad, CostKind::ArrayStore};

/// Extracts, in one walk over \p Invocations, one pooled series per
/// kind in \p Kinds (see extractPooledSeries). \p InputIds must be
/// ascending and unique; each invocation's inputs are merge-joined
/// against them. Every series gets the same X values.
std::vector<std::vector<SeriesPoint>>
extractPooledSeriesByKind(const std::vector<CombinedInvocation> &Invocations,
                          const std::vector<int32_t> &InputIds,
                          std::span<const CostKind> Kinds);

/// Extracts a <size, cost of kind \p K> series pooled over a set of
/// same-kind inputs: each finalized root invocation that touched one of
/// them contributes one point whose X is the largest size among the
/// pooled inputs it touched (one run usually touches exactly one). For
/// CostKind::Step, Y is the invocation's total algorithmic steps; for
/// access kinds, Y counts only operations on the pooled inputs. \p
/// InputIds may come in any order and repeat; each id counts once.
std::vector<SeriesPoint>
extractPooledSeries(const std::vector<CombinedInvocation> &Invocations,
                    std::vector<int32_t> InputIds,
                    CostKind K = CostKind::Step);

/// The paper's report heuristic (Sec. 3.5): an input is interesting when
/// its size actually varies across invocations and the step cost varies
/// with it (constant-cost inputs are excluded).
bool isInterestingSeries(const std::vector<SeriesPoint> &Series);

} // namespace prof
} // namespace algoprof

#endif // ALGOPROF_CORE_ALGORITHMSUMMARY_H
