//===- core/Grouping.cpp --------------------------------------------------===//

#include "core/Grouping.h"

#include <algorithm>

using namespace algoprof;
using namespace algoprof::prof;

const char *algoprof::prof::groupingStrategyName(GroupingStrategy S) {
  switch (S) {
  case GroupingStrategy::CommonInput:
    return "CommonInput";
  case GroupingStrategy::SameMethod:
    return "SameMethod";
  case GroupingStrategy::CommonInputPlusDataflow:
    return "CommonInput+IndexDataflow";
  }
  return "<bad-strategy>";
}

namespace {

/// Canonical ids of the inputs a node *algorithmically* accesses.
///
/// Refinement over the paper's "access at least one common input" rule:
/// a repetition counts as accessing an input only when its access count
/// on that input exceeds twice the number of invocations that touched
/// it. A harness loop calling sort(list) performs a constant number of
/// prologue link reads per call (List.sort's null checks and the
/// firstUnsorted initialization — two reads) and would otherwise be
/// grouped into every algorithm it drives; with the
/// constant-accesses-per-invocation cutoff the measure loops stay
/// data-structure-less exactly as in the paper's Figure 3, while any
/// repetition whose accesses scale with the input stays grouped.
std::vector<int32_t> canonicalInputs(const RepetitionNode &N,
                                     const InputTable &T) {
  std::vector<std::pair<int32_t, int64_t>> Accesses; // (input, count)
  std::vector<int32_t> Touched; // One entry per touching invocation.
  for (const RecordView &R : N.records()) {
    if (!R.Finalized)
      continue;
    for (const auto &[Id, Use] : R.Inputs) {
      (void)Use;
      Touched.push_back(T.canonical(Id));
    }
    for (const auto &[Key, Count] : R.Costs) {
      if (Key.InputId < 0 || Key.TypeId >= 0)
        continue;
      if (Key.Kind == CostKind::StructGet ||
          Key.Kind == CostKind::StructPut ||
          Key.Kind == CostKind::ArrayLoad ||
          Key.Kind == CostKind::ArrayStore ||
          Key.Kind == CostKind::InputRead ||
          Key.Kind == CostKind::OutputWrite)
        Accesses.push_back({T.canonical(Key.InputId), Count});
    }
  }
  std::sort(Accesses.begin(), Accesses.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::sort(Touched.begin(), Touched.end());
  std::vector<int32_t> Ids;
  auto TouchedIt = Touched.begin();
  for (size_t I = 0; I < Accesses.size();) {
    int32_t Id = Accesses[I].first;
    int64_t Count = 0;
    for (; I < Accesses.size() && Accesses[I].first == Id; ++I)
      Count += Accesses[I].second;
    auto [Lo, Hi] = std::equal_range(TouchedIt, Touched.end(), Id);
    TouchedIt = Hi;
    if (Count > 2 * static_cast<int64_t>(Hi - Lo))
      Ids.push_back(Id);
  }
  return Ids;
}

/// Whether the ascending id lists \p A and \p B share an id.
bool intersects(const std::vector<int32_t> &A, const std::vector<int32_t> &B) {
  for (size_t I = 0, J = 0; I < A.size() && J < B.size();) {
    if (A[I] == B[J])
      return true;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return false;
}

/// The AST loop id of a loop repetition node, or -1.
int astLoopIdOf(const RepetitionNode &N, const vm::PreparedProgram &P) {
  if (N.Key.Kind != RepKind::Loop)
    return -1;
  const analysis::LoopInfo &LI =
      P.Methods[static_cast<size_t>(N.Key.MethodId)].Loops;
  if (N.Key.LoopId < 0 || N.Key.LoopId >= LI.numLoops())
    return -1;
  return LI.Loops[static_cast<size_t>(N.Key.LoopId)].AstLoopId;
}

} // namespace

std::vector<Algorithm>
algoprof::prof::groupAlgorithms(const RepetitionTree &Tree,
                                const InputTable &Inputs,
                                const vm::PreparedProgram &P,
                                GroupingStrategy Strategy,
                                const analysis::IndexDataflow *Dataflow) {
  std::vector<Algorithm> Result;

  // Recursive walk carrying (group id of parent node, parent's inputs).
  struct Walker {
    const InputTable &Inputs;
    const vm::PreparedProgram &P;
    GroupingStrategy Strategy;
    const analysis::IndexDataflow *Dataflow;
    std::vector<Algorithm> &Result;

    bool joins(const RepetitionNode &Child, const RepetitionNode &Parent,
               const std::vector<int32_t> &ChildIn,
               const std::vector<int32_t> &ParentIn) const {
      switch (Strategy) {
      case GroupingStrategy::SameMethod:
        return Child.Key.Kind == RepKind::Loop &&
               Parent.Key.Kind == RepKind::Loop &&
               Child.Key.MethodId == Parent.Key.MethodId;
      case GroupingStrategy::CommonInput:
      case GroupingStrategy::CommonInputPlusDataflow: {
        if (intersects(ChildIn, ParentIn))
          return true;
        if (Strategy != GroupingStrategy::CommonInputPlusDataflow ||
            !Dataflow)
          return false;
        if (Child.Key.Kind != RepKind::Loop ||
            Parent.Key.Kind != RepKind::Loop ||
            Child.Key.MethodId != Parent.Key.MethodId)
          return false;
        int OuterAst = astLoopIdOf(Parent, P);
        int InnerAst = astLoopIdOf(Child, P);
        if (OuterAst < 0 || InnerAst < 0)
          return false;
        const std::string &Qualified =
            P.M->Methods[static_cast<size_t>(Parent.Key.MethodId)]
                .QualifiedName;
        return Dataflow->linked(Qualified, OuterAst, InnerAst);
      }
      }
      return false;
    }

    void walk(const RepetitionNode &N, const RepetitionNode *Parent,
              int32_t ParentGroup, const std::vector<int32_t> &ParentIn) {
      std::vector<int32_t> MyIn = canonicalInputs(N, Inputs);
      int32_t Group;
      if (Parent && ParentGroup >= 0 &&
          joins(N, *Parent, MyIn, ParentIn)) {
        Group = ParentGroup;
      } else {
        Group = static_cast<int32_t>(Result.size());
        Algorithm A;
        A.Id = Group;
        A.Root = &N;
        Result.push_back(std::move(A));
      }
      Algorithm &G = Result[static_cast<size_t>(Group)];
      G.Nodes.push_back(&N);
      for (int32_t Id : MyIn)
        if (std::find(G.InputIds.begin(), G.InputIds.end(), Id) ==
            G.InputIds.end())
          G.InputIds.push_back(Id);
      for (const auto &C : N.Children)
        walk(*C, &N, Group, MyIn);
    }
  } W{Inputs, P, Strategy, Dataflow, Result};

  for (const auto &TopLevel : Tree.root().Children)
    W.walk(*TopLevel, nullptr, -1, {});

  for (Algorithm &A : Result)
    std::sort(A.InputIds.begin(), A.InputIds.end());
  return Result;
}
