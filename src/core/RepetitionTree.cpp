//===- core/RepetitionTree.cpp --------------------------------------------===//

#include "core/RepetitionTree.h"

#include "obs/Obs.h"

#include <cassert>
#include <set>

using namespace algoprof;
using namespace algoprof::prof;

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

void RepetitionTree::mergeSubtree(RepetitionNode &Dst,
                                  const RepetitionNode &Src,
                                  size_t ParentOffset,
                                  const std::vector<int32_t> &Remap) {
  auto RemapId = [&Remap](int32_t Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Remap.size() &&
           "input id missing from remap");
    return Remap[static_cast<size_t>(Id)];
  };
  size_t MyOffset = Dst.History.size();
  Dst.TotalInvocations += Src.TotalInvocations;
  Dst.History.reserve(MyOffset + Src.History.size());
  for (const InvocationRecord &R : Src.History) {
    InvocationRecord N;
    N.Costs = R.Costs;
    N.Costs.canonicalizeInputs(RemapId);
    N.FoldedCosts = R.FoldedCosts;
    N.FoldedCosts.canonicalizeInputs(RemapId);
    for (const auto &[Id, Use] : R.Inputs) {
      auto [It, Inserted] = N.Inputs.emplace(RemapId(Id), Use);
      if (!Inserted)
        It->second.mergeMax(Use);
    }
    N.ParentNode = Dst.Parent;
    N.ParentInvocation =
        R.ParentInvocation >= 0
            ? R.ParentInvocation + static_cast<int32_t>(ParentOffset)
            : -1;
    N.Finalized = R.Finalized;
    Dst.History.push_back(std::move(N));
  }
  for (const auto &C : Src.Children)
    mergeSubtree(getOrCreateChild(Dst, C->Key, C->Name), *C, MyOffset,
                 Remap);
}

void RepetitionTree::merge(const RepetitionTree &Other,
                           const std::vector<int32_t> &InputRemap) {
  mergeSubtree(*Root, Other.root(), /*ParentOffset=*/0, InputRemap);
}

int RepetitionTree::numRepetitions() const {
  int N = -1; // Exclude the root.
  forEach([&N](const RepetitionNode &) { ++N; });
  return N;
}
