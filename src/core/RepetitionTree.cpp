//===- core/RepetitionTree.cpp --------------------------------------------===//

#include "core/RepetitionTree.h"

#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace algoprof;
using namespace algoprof::prof;

const InputUse *InputUses::find(int32_t Id) const {
  auto It = std::lower_bound(
      Uses.begin(), Uses.end(), Id,
      [](const Entry &E, int32_t Key) { return E.first < Key; });
  return It != Uses.end() && It->first == Id ? &It->second : nullptr;
}

void InputUses::sortAndFold() {
  auto Less = [](const Entry &A, const Entry &B) { return A.first < B.first; };
  if (!std::is_sorted(Uses.begin(), Uses.end(), Less))
    std::stable_sort(Uses.begin(), Uses.end(), Less);
  size_t Out = 0;
  for (size_t I = 0; I < Uses.size(); ++I) {
    if (Out > 0 && Uses[Out - 1].first == Uses[I].first)
      Uses[Out - 1].second.mergeMax(Uses[I].second);
    else
      Uses[Out++] = Uses[I];
  }
  Uses.resize(Out);
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
      Sum += R.Costs.steps();
  return Sum;
}

std::vector<int32_t> RepetitionNode::touchedInputs() const {
  std::set<int32_t> Ids;
  for (const InvocationRecord &R : History)
    for (const auto &[Id, Use] : R.Inputs)
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

void RepetitionTree::mergeSubtree(RepetitionNode &Dst, RepetitionNode &Src,
                                  size_t ParentOffset,
                                  const std::vector<int32_t> &Remap) {
  auto RemapId = [&Remap](int32_t Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Remap.size() &&
           "input id missing from remap");
    return Remap[static_cast<size_t>(Id)];
  };
  size_t MyOffset = Dst.History.size();
  Dst.TotalInvocations += Src.TotalInvocations;
  for (InvocationRecord &R : Src.History) {
    R.Costs.canonicalizeInputs(RemapId);
    R.FoldedCosts.canonicalizeInputs(RemapId);
    R.Inputs.canonicalize(RemapId);
    R.ParentNode = Dst.Parent;
    if (R.ParentInvocation >= 0)
      R.ParentInvocation += static_cast<int32_t>(ParentOffset);
  }
  if (Dst.History.empty()) {
    Dst.History = std::move(Src.History);
  } else {
    Dst.History.insert(Dst.History.end(),
                       std::make_move_iterator(Src.History.begin()),
                       std::make_move_iterator(Src.History.end()));
  }
  Src.History.clear();
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
