//===- tests/EndToEndTest.cpp - The paper's headline results --------------===//
//
// Small-scale versions of every figure's claim; the bench binaries rerun
// them at paper scale.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::testutil;

namespace {

struct Profiled {
  std::unique_ptr<CompiledProgram> CP;
  std::unique_ptr<ProfileSession> Session;
  std::vector<AlgorithmProfile> Profiles;
};

Profiled profileProgram(const std::string &Src) {
  Profiled P;
  P.CP = compile(Src);
  if (!P.CP)
    return P;
  P.Session = std::make_unique<ProfileSession>(*P.CP);
  vm::RunResult R = P.Session->run("Main", "main");
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  P.Profiles = P.Session->buildProfiles();
  return P;
}

const AlgorithmProfile *byRoot(const Profiled &P, const std::string &Root) {
  for (const AlgorithmProfile &AP : P.Profiles)
    if (AP.Algo.Root->Name == Root)
      return &AP;
  return nullptr;
}

double fittedExponent(const AlgorithmProfile *AP) {
  EXPECT_NE(AP, nullptr);
  if (!AP)
    return -1;
  const AlgorithmProfile::InputSeries *S = AP->primarySeries();
  EXPECT_NE(S, nullptr) << "no interesting series for " << AP->Label;
  if (!S)
    return -1;
  EXPECT_TRUE(S->Fit.Valid);
  return S->Fit.growthExponent();
}

TEST(EndToEnd, Figure1aRandomInputIsQuadratic) {
  Profiled P = profileProgram(programs::insertionSortProgram(
      120, 10, 3, programs::InputOrder::Random));
  const AlgorithmProfile *Sort = byRoot(P, "List.sort loop#0");
  EXPECT_NEAR(fittedExponent(Sort), 2.0, 0.25);
  // The coefficient is near the paper's 0.25*size^2.
  const auto *S = Sort->primarySeries();
  if (S->Fit.Kind == fit::ModelKind::Quadratic)
    EXPECT_NEAR(S->Fit.Coefficient, 0.25, 0.08);
}

TEST(EndToEnd, Figure1bSortedInputIsLinear) {
  Profiled P = profileProgram(programs::insertionSortProgram(
      120, 10, 3, programs::InputOrder::Sorted));
  const AlgorithmProfile *Sort = byRoot(P, "List.sort loop#0");
  EXPECT_NEAR(fittedExponent(Sort), 1.0, 0.25);
}

TEST(EndToEnd, Figure1cReversedInputIsHalfNSquared) {
  Profiled P = profileProgram(programs::insertionSortProgram(
      120, 10, 3, programs::InputOrder::Reversed));
  const AlgorithmProfile *Sort = byRoot(P, "List.sort loop#0");
  const auto *S = Sort->primarySeries();
  ASSERT_NE(S, nullptr);
  EXPECT_NEAR(fittedExponent(Sort), 2.0, 0.15);
  // Reversed input: every element travels the whole way: ~0.5*n^2.
  double PredictedAt100 =
      S->Fit.Coefficient * std::pow(100.0, S->Fit.growthExponent());
  EXPECT_NEAR(PredictedAt100 / (0.5 * 100 * 100), 1.0, 0.25);
}

TEST(EndToEnd, Figure3ConstructionIsLinear) {
  Profiled P = profileProgram(programs::insertionSortProgram(
      120, 10, 3, programs::InputOrder::Random));
  const AlgorithmProfile *Build = byRoot(P, "Main.constructRandom loop#0");
  ASSERT_NE(Build, nullptr);
  EXPECT_NEAR(fittedExponent(Build), 1.0, 0.1);
  EXPECT_NE(Build->Label.find("Construction"), std::string::npos);
}

TEST(EndToEnd, Figure3SortIsModificationNotConstruction) {
  Profiled P = profileProgram(programs::insertionSortProgram(
      120, 10, 3, programs::InputOrder::Random));
  const AlgorithmProfile *Sort = byRoot(P, "List.sort loop#0");
  ASSERT_NE(Sort, nullptr);
  EXPECT_NE(Sort->Label.find("Modification of a Node-based recursive "
                             "structure"),
            std::string::npos);
}

TEST(EndToEnd, Figure5NaiveGrowthQuadraticDoublingLinear) {
  Profiled Naive =
      profileProgram(programs::arrayListProgram(false, 96, 8));
  Profiled Doubling =
      profileProgram(programs::arrayListProgram(true, 96, 8));
  const AlgorithmProfile *N = byRoot(Naive, "Main.testForSize loop#0");
  const AlgorithmProfile *D = byRoot(Doubling, "Main.testForSize loop#0");
  EXPECT_NEAR(fittedExponent(N), 2.0, 0.3);
  EXPECT_LE(fittedExponent(D), 1.3);
}

TEST(EndToEnd, MergeSortIsNLogN) {
  Profiled P = profileProgram(programs::mergeSortProgram(
      200, 20, 2, programs::InputOrder::Random));
  const AlgorithmProfile *Sort = byRoot(P, "MergeSort.sortList (recursion)");
  ASSERT_NE(Sort, nullptr);
  double Exp = fittedExponent(Sort);
  EXPECT_GT(Exp, 0.95);
  EXPECT_LT(Exp, 1.5);
}

TEST(EndToEnd, Section43FunctionalProfileMatches) {
  // Paradigm-agnosticism: the functional sort shows the same structure —
  // a linear construction and a quadratic sorting algorithm over a
  // recursive structure.
  Profiled P = profileProgram(programs::functionalSortProgram(
      100, 10, 3, programs::InputOrder::Random));
  const AlgorithmProfile *Build = byRoot(P, "Main.construct loop#0");
  ASSERT_NE(Build, nullptr);
  EXPECT_NEAR(fittedExponent(Build), 1.0, 0.1);
  EXPECT_NE(Build->Label.find("Construction"), std::string::npos);

  // The total sorting work (sort + nested insert, combined by hand as
  // the paper's intuitive algorithm) is quadratic in the list size.
  const RepetitionNode *SortN = nullptr, *InsertN = nullptr;
  P.Session->tree().forEach([&](const RepetitionNode &N) {
    if (N.Name == "FSort.sort (recursion)")
      SortN = &N;
    if (N.Name == "FSort.insert (recursion)")
      InsertN = &N;
  });
  ASSERT_NE(SortN, nullptr);
  ASSERT_NE(InsertN, nullptr);
  Algorithm Whole;
  Whole.Root = SortN;
  Whole.Nodes = {SortN, InsertN};
  auto Combined = combineInvocations(Whole, P.Session->inputs());
  // Pool over the original-list inputs (the ones sort reads).
  std::vector<int32_t> Ids;
  for (int32_t Id : SortN->touchedInputs())
    Ids.push_back(P.Session->inputs().canonical(Id));
  auto Series = extractPooledSeries(Combined, Ids);
  fit::FitResult F = fit::fitBest(Series);
  ASSERT_TRUE(F.Valid);
  EXPECT_NEAR(F.growthExponent(), 2.0, 0.3);
}

TEST(EndToEnd, ScalabilityPrediction) {
  // The paper's pitch: predict how cost scales to unseen sizes. Fit on
  // sizes <= 100, predict size 200, compare against a real run.
  Profiled Small = profileProgram(programs::insertionSortProgram(
      110, 10, 2, programs::InputOrder::Reversed));
  const AlgorithmProfile *Sort = byRoot(Small, "List.sort loop#0");
  const auto *S = Sort->primarySeries();
  ASSERT_NE(S, nullptr);
  double Predicted =
      S->Fit.Coefficient * std::pow(200.0, S->Fit.growthExponent());

  Profiled Big = profileProgram(programs::insertionSortProgram(
      201, 200, 1, programs::InputOrder::Reversed));
  const AlgorithmProfile *BigSort = byRoot(Big, "List.sort loop#0");
  ASSERT_NE(BigSort, nullptr);
  ASSERT_FALSE(BigSort->Invocations.empty());
  double Actual = 0;
  for (const CombinedInvocation &Inv : BigSort->Invocations)
    Actual = std::max(
        Actual, static_cast<double>(Inv.Costs.steps()));
  EXPECT_NEAR(Predicted / Actual, 1.0, 0.2);
}

TEST(EndToEnd, IoProgramEchoes) {
  auto CP = compile(programs::ioSumProgram());
  ASSERT_TRUE(CP);
  ProfileSession S(*CP);
  vm::IoChannels Io;
  Io.Input = {3, 4, 5};
  ASSERT_TRUE(S.run("Main", "main", Io).ok());
  EXPECT_EQ(Io.Output, (std::vector<int64_t>{3, 4, 5, 12}));
  // The loop's costs include input reads and output writes.
  bool SawIo = false;
  S.tree().forEach([&](const RepetitionNode &N) {
    for (const RecordView &R : N.records())
      if (R.Costs.total(CostKind::InputRead) == 3 &&
          R.Costs.total(CostKind::OutputWrite) == 3)
        SawIo = true;
  });
  EXPECT_TRUE(SawIo);
}

} // namespace
