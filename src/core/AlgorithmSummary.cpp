//===- core/AlgorithmSummary.cpp ------------------------------------------===//

#include "core/AlgorithmSummary.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace algoprof;
using namespace algoprof::prof;

std::vector<CombinedInvocation>
algoprof::prof::combineInvocations(const Algorithm &A, const InputTable &T) {
  assert(!A.Nodes.empty() && A.Nodes.front() == A.Root &&
         "algorithm nodes must start with the root");
  // Top-down: the root invocation each record folds into, or -1. Nodes
  // come in pre-order, so a record's parent record is mapped before it;
  // a record whose parent maps to -1 maps to -1 too. Records skip the
  // fold when unfinished, when their parent node is outside the
  // algorithm, or when their parent invocation was sampled out (paper
  // Sec. 3.3 sampling trades completeness for memory).
  std::vector<size_t> Base(A.Nodes.size());
  std::vector<int32_t> RootRow;
  const RepetitionNode *LastParent = nullptr;
  size_t LastParentIdx = 0;
  for (size_t NI = 0; NI < A.Nodes.size(); ++NI) {
    const RepetitionNode *N = A.Nodes[NI];
    Base[NI] = RootRow.size();
    for (size_t I = 0; I < N->History.size(); ++I) {
      const InvocationRecord &R = N->History[I];
      if (NI == 0) {
        RootRow.push_back(R.Finalized ? static_cast<int32_t>(I) : -1);
        continue;
      }
      if (!R.Finalized || !R.ParentNode || R.ParentInvocation < 0) {
        RootRow.push_back(-1);
        continue;
      }
      if (R.ParentNode != LastParent) {
        auto It = std::find(A.Nodes.begin(), A.Nodes.end(), R.ParentNode);
        LastParent = R.ParentNode;
        LastParentIdx = static_cast<size_t>(It - A.Nodes.begin());
        assert((It == A.Nodes.end() || LastParentIdx < NI) &&
               "parent node visited after its child");
      }
      if (LastParentIdx == A.Nodes.size()) {
        RootRow.push_back(-1);
        continue;
      }
      assert(static_cast<size_t>(R.ParentInvocation) <
                 A.Nodes[LastParentIdx]->History.size() &&
             "parent invocation index out of range");
      RootRow.push_back(RootRow[Base[LastParentIdx] +
                                static_cast<size_t>(R.ParentInvocation)]);
    }
  }

  // Bucket the records by root invocation, keeping visit order.
  const std::vector<InvocationRecord> &Roots = A.Root->History;
  std::vector<size_t> Start(Roots.size() + 1, 0);
  for (int32_t Row : RootRow)
    if (Row >= 0)
      ++Start[static_cast<size_t>(Row) + 1];
  for (size_t I = 1; I < Start.size(); ++I)
    Start[I] += Start[I - 1];
  std::vector<RecordView> Members(Start.back());
  std::vector<size_t> Fill(Start.begin(), Start.end() - 1);
  for (size_t NI = 0; NI < A.Nodes.size(); ++NI)
    for (size_t I = 0; I < A.Nodes[NI]->History.size(); ++I)
      if (int32_t Row = RootRow[Base[NI] + I]; Row >= 0)
        Members[Fill[static_cast<size_t>(Row)]++] = A.Nodes[NI]->record(I);

  // Build each finalized root row once: its records' canonicalized
  // entries, then one sort. Costs folded up from sampled-out children
  // belong to the combined invocation cost.
  auto Canonical = [&T](int32_t Id) { return Id < 0 ? Id : T.canonical(Id); };
  std::vector<CombinedInvocation> Result;
  Result.reserve(Roots.size());
  for (size_t Row = 0; Row < Roots.size(); ++Row) {
    if (!Roots[Row].Finalized)
      continue;
    size_t NumCosts = 0, NumUses = 0;
    for (size_t M = Start[Row]; M < Start[Row + 1]; ++M) {
      NumCosts += Members[M].Costs.size() + Members[M].FoldedCosts.size();
      NumUses += Members[M].Inputs.size();
    }
    std::vector<CostMap::Entry> Costs;
    Costs.reserve(NumCosts);
    std::vector<InputUses::Entry> Uses;
    Uses.reserve(NumUses);
    for (size_t M = Start[Row]; M < Start[Row + 1]; ++M) {
      const RecordView &R = Members[M];
      for (CostSpan Map : {R.Costs, R.FoldedCosts})
        for (const auto &[Key, N] : Map)
          Costs.push_back(
              {{Key.Kind, Canonical(Key.InputId), Key.TypeId}, N});
      for (const auto &[Id, Use] : R.Inputs)
        Uses.emplace_back(T.canonical(Id), Use);
    }
    CombinedInvocation &Inv = Result.emplace_back();
    Inv.Costs = CostMap::sum(std::move(Costs));
    Inv.Inputs = InputUses::fold(std::move(Uses));
  }
  return Result;
}

std::vector<std::vector<SeriesPoint>>
algoprof::prof::extractPooledSeriesByKind(
    const std::vector<CombinedInvocation> &Invocations,
    const std::vector<int32_t> &InputIds, std::span<const CostKind> Kinds) {
  assert(std::adjacent_find(InputIds.begin(), InputIds.end(),
                            std::greater_equal<int32_t>()) ==
             InputIds.end() &&
         "pooled input ids must be ascending and unique");
  std::vector<std::vector<SeriesPoint>> Series(Kinds.size());
  std::vector<int64_t> Cost(Kinds.size());
  for (const CombinedInvocation &Inv : Invocations) {
    int64_t BestSize = -1;
    std::fill(Cost.begin(), Cost.end(), 0);
    // Merge-join the invocation's inputs against the pooled ids.
    auto Id = InputIds.begin();
    for (const auto &[UseId, Use] : Inv.Inputs) {
      Id = std::lower_bound(Id, InputIds.end(), UseId);
      if (Id == InputIds.end())
        break;
      if (*Id != UseId)
        continue;
      BestSize = std::max(BestSize, Use.MaxSize);
      for (size_t K = 0; K < Kinds.size(); ++K)
        if (Kinds[K] != CostKind::Step)
          Cost[K] += Inv.Costs.total(Kinds[K], UseId);
    }
    if (BestSize < 0)
      continue;
    int64_t Steps = Inv.Costs.steps();
    for (size_t K = 0; K < Kinds.size(); ++K)
      Series[K].push_back(
          {static_cast<double>(BestSize),
           static_cast<double>(Kinds[K] == CostKind::Step ? Steps
                                                          : Cost[K])});
  }
  return Series;
}

std::vector<SeriesPoint> algoprof::prof::extractPooledSeries(
    const std::vector<CombinedInvocation> &Invocations,
    std::vector<int32_t> InputIds, CostKind K) {
  std::sort(InputIds.begin(), InputIds.end());
  InputIds.erase(std::unique(InputIds.begin(), InputIds.end()),
                 InputIds.end());
  return std::move(extractPooledSeriesByKind(Invocations, InputIds,
                                             std::span<const CostKind>(&K, 1))
                       .front());
}

bool algoprof::prof::isInterestingSeries(
    const std::vector<SeriesPoint> &Series) {
  if (Series.size() < 3)
    return false;
  double MinX = Series.front().X, MaxX = Series.front().X;
  double MinY = Series.front().Y, MaxY = Series.front().Y;
  for (const SeriesPoint &Pt : Series) {
    MinX = std::min(MinX, Pt.X);
    MaxX = std::max(MaxX, Pt.X);
    MinY = std::min(MinY, Pt.Y);
    MaxY = std::max(MaxY, Pt.Y);
  }
  return MaxX > MinX && MaxY > MinY;
}
