//===- core/RepetitionTree.cpp --------------------------------------------===//

#include "core/RepetitionTree.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace algoprof;
using namespace algoprof::prof;

const InputUse *UseSpan::find(int32_t Id) const {
  auto It = std::lower_bound(
      Uses.begin(), Uses.end(), Id,
      [](const UseEntry &E, int32_t Key) { return E.first < Key; });
  return It != Uses.end() && It->first == Id ? &It->second : nullptr;
}

size_t algoprof::prof::sortAndFoldUses(std::span<UseEntry> Uses) {
  auto Less = [](const UseEntry &A, const UseEntry &B) {
    return A.first < B.first;
  };
  if (!std::is_sorted(Uses.begin(), Uses.end(), Less))
    std::stable_sort(Uses.begin(), Uses.end(), Less);
  size_t Out = 0;
  for (size_t I = 0; I < Uses.size(); ++I) {
    if (Out > 0 && Uses[Out - 1].first == Uses[I].first)
      Uses[Out - 1].second.mergeMax(Uses[I].second);
    else
      Uses[Out++] = Uses[I];
  }
  return Out;
}

RepetitionNode *RepetitionNode::findChild(const RepKey &K) {
  for (const auto &C : Children)
    if (C->Key == K)
      return C.get();
  return nullptr;
}

int64_t RepetitionNode::totalSteps() const {
  int64_t Sum = 0;
  for (const InvocationRecord &R : History)
    if (R.Finalized)
      Sum += costs(R.Costs).steps();
  return Sum;
}

std::vector<int32_t> RepetitionNode::touchedInputs() const {
  std::set<int32_t> Ids;
  for (const InvocationRecord &R : History)
    for (const auto &[Id, Use] : uses(R.Inputs))
      Ids.insert(Id);
  return {Ids.begin(), Ids.end()};
}

RepetitionTree::RepetitionTree() : Root(std::make_unique<RepetitionNode>()) {
  Root->Key = RepKey{RepKind::Root, -1, -1};
  Root->Name = "Program";
}

RepetitionNode &RepetitionTree::getOrCreateChild(RepetitionNode &Parent,
                                                 const RepKey &K,
                                                 const std::string &Name) {
  if (RepetitionNode *Existing = Parent.findChild(K))
    return *Existing;
  return addChild(Parent, K, Name);
}

RepetitionNode &RepetitionTree::addChild(RepetitionNode &Parent,
                                         const RepKey &K, std::string Name) {
  assert(!Parent.findChild(K) && "child already present");
  auto Node = std::make_unique<RepetitionNode>();
  Node->Key = K;
  Node->Name = std::move(Name);
  Node->Parent = &Parent;
  Parent.Children.push_back(std::move(Node));
  obs::addCount(obs::Counter::TreeNodes);
  return *Parent.Children.back();
}

namespace {

/// Appends \p Src to \p Dst (moving the block when \p Dst is empty) and
/// leaves \p Src empty.
template <typename T>
void appendColumn(std::vector<T> &Dst, std::vector<T> &Src) {
  if (Dst.empty())
    Dst.swap(Src);
  else
    Dst.insert(Dst.end(), Src.begin(), Src.end());
  Src.clear();
}

} // namespace

void RepetitionTree::mergeSubtree(RepetitionNode &Dst, RepetitionNode &Src,
                                  size_t ParentOffset,
                                  const std::vector<int32_t> &Remap) {
  auto RemapId = [&Remap](int32_t Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Remap.size() &&
           "input id missing from remap");
    return Remap[static_cast<size_t>(Id)];
  };
  size_t MyOffset = Dst.History.size();
  auto CostShift = static_cast<uint32_t>(Dst.CostColumn.size());
  auto UseShift = static_cast<uint32_t>(Dst.UseColumn.size());
  Dst.TotalInvocations += Src.TotalInvocations;
  appendColumn(Dst.History, Src.History);
  appendColumn(Dst.CostColumn, Src.CostColumn);
  appendColumn(Dst.UseColumn, Src.UseColumn);
  assert(Dst.CostColumn.size() <= UINT32_MAX &&
         Dst.UseColumn.size() <= UINT32_MAX && "column past 32-bit ranges");
  std::span<CostEntry> Costs(Dst.CostColumn);
  std::span<UseEntry> Uses(Dst.UseColumn);
  for (size_t I = MyOffset; I < Dst.History.size(); ++I) {
    InvocationRecord &R = Dst.History[I];
    for (ColumnRange *C : {&R.Costs, &R.FoldedCosts}) {
      C->Begin += CostShift;
      C->Size = static_cast<uint32_t>(canonicalizeCostInputs(
          Costs.subspan(C->Begin, C->Size), RemapId));
    }
    R.Inputs.Begin += UseShift;
    R.Inputs.Size = static_cast<uint32_t>(
        canonicalizeUses(Uses.subspan(R.Inputs.Begin, R.Inputs.Size), RemapId));
    R.ParentNode = Dst.Parent;
    if (R.ParentInvocation >= 0)
      R.ParentInvocation += static_cast<int32_t>(ParentOffset);
  }
  for (const auto &C : Src.Children)
    mergeSubtree(getOrCreateChild(Dst, C->Key, C->Name), *C, MyOffset,
                 Remap);
}

void RepetitionTree::merge(RepetitionTree &&Other,
                           const std::vector<int32_t> &InputRemap) {
  mergeSubtree(*Root, Other.root(), /*ParentOffset=*/0, InputRemap);
}

int RepetitionTree::numRepetitions() const {
  int N = -1; // Exclude the root.
  forEach([&N](const RepetitionNode &) { ++N; });
  return N;
}
