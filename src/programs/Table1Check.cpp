//===- programs/Table1Check.cpp -------------------------------------------===//

#include "programs/Table1Check.h"

#include <set>

using namespace algoprof;
using namespace algoprof::programs;
using namespace algoprof::prof;

Table1Outcome
algoprof::programs::evaluateTable1Program(const Table1Program &P,
                                          GroupingStrategy Strategy) {
  Table1Outcome Out;

  DiagnosticEngine Diags;
  auto CP = compileMiniJ(P.Source, Diags);
  if (!CP) {
    Out.Detail = "compile error: " + Diags.str();
    return Out;
  }
  ProfileSession S(*CP);
  vm::RunResult R = S.run("Main", "main");
  if (!R.ok()) {
    Out.Detail = "run failed: " + R.TrapMessage;
    return Out;
  }
  Out.CompiledAndRan = true;

  // Collect the repetition nodes of the designated methods.
  std::set<int32_t> WantedMethods;
  for (const auto &[Cls, Method] : P.GroupMethods) {
    int32_t Id = CP->Mod->findMethodId(Cls, Method);
    if (Id >= 0)
      WantedMethods.insert(Id);
  }
  std::vector<const RepetitionNode *> Designated;
  S.tree().forEach([&](const RepetitionNode &N) {
    if (N.Key.Kind == RepKind::Root)
      return;
    if (WantedMethods.count(N.Key.MethodId))
      Designated.push_back(&N);
  });
  if (Designated.empty()) {
    Out.Detail = "no repetition nodes found for the designated methods";
    return Out;
  }

  // I column: the designated algorithm touched at least one input.
  std::set<int32_t> TouchedInputs;
  for (const RepetitionNode *N : Designated)
    for (int32_t Id : N->touchedInputs())
      TouchedInputs.insert(S.inputs().canonical(Id));
  Out.InputsDetected = !TouchedInputs.empty();
  if (!Out.InputsDetected)
    Out.Detail += "designated repetitions touched no inputs; ";

  // S column: every sweep point's expected size was observed on some
  // designated-node invocation.
  std::set<int64_t> ObservedSizes;
  for (const RepetitionNode *N : Designated)
    for (const RecordView &Rec : N->records())
      for (const auto &[Id, Use] : Rec.Inputs) {
        (void)Id;
        ObservedSizes.insert(Use.MaxSize);
      }
  Out.SizesCorrect = true;
  for (int N = P.StepN; N <= P.MaxN; N += P.StepN) {
    int64_t Expected = P.ExpectedSize(N);
    if (!ObservedSizes.count(Expected)) {
      Out.SizesCorrect = false;
      Out.Detail += "missing size " + std::to_string(Expected) +
                    " for n=" + std::to_string(N) + "; ";
    }
  }

  // G column: all designated nodes in one algorithm.
  std::vector<Algorithm> Algos = S.algorithms(Strategy);
  std::set<int32_t> Groups;
  for (const RepetitionNode *N : Designated)
    for (const Algorithm &A : Algos)
      if (A.contains(N))
        Groups.insert(A.Id);
  Out.GColumn = Groups.size() == 1 ? 'x' : '-';
  return Out;
}
