//===- tests/EndToEndTest.cpp - Whole-pipeline claims beyond the figures --===//
//
// Claims beyond the paper's figures: n log n merge sort, prediction of
// an unseen size, and I/O costs. The figures themselves are rows of the
// experiment table (tests/PaperTest.cpp).
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

TEST(EndToEnd, MergeSortIsNLogN) {
  Profiled P = profileProgram(programs::mergeSortProgram(
      200, 20, 2, programs::InputOrder::Random));
  const AlgorithmProfile *Sort = byRoot(P, "MergeSort.sortList (recursion)");
  ASSERT_NE(Sort, nullptr);
  double Exp = fittedExponent(Sort);
  EXPECT_GT(Exp, 0.95);
  EXPECT_LT(Exp, 1.5);
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
