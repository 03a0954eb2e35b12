//===- core/Classification.cpp --------------------------------------------===//

#include "core/Classification.h"

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::bc;

const char *algoprof::prof::algorithmClassName(AlgorithmClass C) {
  switch (C) {
  case AlgorithmClass::Construction:
    return "Construction";
  case AlgorithmClass::Modification:
    return "Modification";
  case AlgorithmClass::Traversal:
    return "Traversal";
  case AlgorithmClass::Untouched:
    return "Untouched";
  }
  return "<bad-class>";
}

Classification algoprof::prof::classifyAlgorithm(
    const Algorithm &A, const std::vector<CombinedInvocation> &Invocations,
    const InputTable &T, const Module &M) {
  Classification Result;

  // Aggregate all root invocations: one sort over their entries.
  size_t NumEntries = 0;
  for (const CombinedInvocation &Inv : Invocations)
    NumEntries += Inv.Costs.entries().size();
  std::vector<CostMap::Entry> Entries;
  Entries.reserve(NumEntries);
  for (const CombinedInvocation &Inv : Invocations)
    Entries.insert(Entries.end(), Inv.Costs.entries().begin(),
                   Inv.Costs.entries().end());
  CostMap Total = CostMap::sum(std::move(Entries));

  Result.DoesInput = Total.total(CostKind::InputRead) > 0;
  Result.DoesOutput = Total.total(CostKind::OutputWrite) > 0;

  for (int32_t InputId : A.InputIds) {
    const InputInfo &Info = T.info(InputId);
    // Streams classify at the algorithm level (Input/Output flags), not
    // in the per-structure taxonomy.
    if (Info.IsStream)
      continue;
    Classification::PerInput P;
    P.InputId = InputId;

    // Construction: allocations of element types belonging to the input.
    int64_t NewCount = 0;
    if (Info.IsArray) {
      for (const auto &[Key, N] : Total.entries()) {
        if (Key.Kind != CostKind::ArrayNew || Key.TypeId < 0)
          continue;
        // Key.TypeId is the allocated array type; compare element types.
        TypeId Elem = M.Types[static_cast<size_t>(Key.TypeId)].Elem;
        if (Elem == Info.TypeKey)
          NewCount += N;
      }
    } else {
      for (const auto &[ClassId, Members] : Info.MemberClassCounts) {
        (void)Members;
        NewCount += Total.get({CostKind::New, -1, ClassId});
      }
    }

    // Inputs can be touched both as structures (link fields) and as
    // arrays (naked or embedded); count both access families.
    int64_t Writes = Total.total(CostKind::ArrayStore, InputId) +
                     Total.total(CostKind::StructPut, InputId);
    int64_t Reads = Total.total(CostKind::ArrayLoad, InputId) +
                    Total.total(CostKind::StructGet, InputId);

    // Mutual exclusion with precedence (Sec. 2.8).
    if (NewCount > 0)
      P.Class = AlgorithmClass::Construction;
    else if (Writes > 0)
      P.Class = AlgorithmClass::Modification;
    else if (Reads > 0)
      P.Class = AlgorithmClass::Traversal;
    else
      P.Class = AlgorithmClass::Untouched;
    Result.Inputs.push_back(P);
  }
  return Result;
}

std::string Classification::label(const InputTable &T) const {
  // Aggregate same-kind inputs: a sweep harness produces one structure
  // instance per run, all with the same classification and type.
  std::map<std::pair<std::string, std::string>, int64_t> Grouped;
  for (const PerInput &P : Inputs)
    ++Grouped[{algorithmClassName(P.Class), T.info(P.InputId).Label}];

  std::string Out;
  for (const auto &[Key, Count] : Grouped) {
    if (!Out.empty())
      Out += "; ";
    Out += Key.first + " of a " + Key.second;
    if (Count > 1)
      Out += " (" + std::to_string(Count) + " instances)";
  }
  if (DoesInput)
    Out += Out.empty() ? "Input algorithm" : "; Input algorithm";
  if (DoesOutput)
    Out += Out.empty() ? "Output algorithm" : "; Output algorithm";
  if (Out.empty())
    Out = "Data-structure-less algorithm";
  return Out;
}
